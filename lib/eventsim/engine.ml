(* A flat binary min-heap on (time, as-of, id). [times], [as_ofs] and
   [ids] hold the heap in array order; an event's callback stays in
   [actions] at a fixed slot, so sifting moves only floats and ints and
   never runs the write barrier. An id packs the event's scheduling
   sequence number above its slot: comparing ids compares scheduling
   order, and the slot is the id's low bits. An event's as-of instant
   is the clock when it was scheduled unless [schedule_as_of] says
   otherwise; for the former, as-of order is scheduling order.

   Cancelling an event frees its slot at once and leaves its heap entry
   behind. [owner] says which id holds each slot, so a left-behind entry
   (its slot empty or reused by a later event) is recognised when it
   reaches the root; [stale] counts them, and the root is inspected
   only while it is non-zero. *)

type event_id = int

let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

let max_seq = max_int lsr slot_bits

(* An all-float record is stored flat, so setting the clock does not
   allocate. [firing_as_of] is the as-of instant of the event being
   fired, infinity between events. *)
type clock = { mutable now : float; mutable firing_as_of : float }

type t = {
  mutable times : float array;
  mutable as_ofs : float array;
  mutable ids : int array;
  mutable size : int;
  mutable actions : (unit -> unit) array;  (* by slot *)
  mutable owner : int array;  (* by slot: the id holding it, or -1 *)
  mutable free : int array;  (* stack of free slots below [slots] *)
  mutable nfree : int;
  mutable slots : int;  (* slots ever handed out *)
  mutable stale : int;  (* cancelled entries still in the heap *)
  clock : clock;
  mutable next_seq : int;
  mutable live : int;
}

let create () =
  {
    times = Array.make 64 0.0;
    as_ofs = Array.make 64 0.0;
    ids = Array.make 64 0;
    size = 0;
    actions = Array.make 64 ignore;
    owner = Array.make 64 (-1);
    free = Array.make 64 0;
    nfree = 0;
    slots = 0;
    stale = 0;
    clock = { now = 0.0; firing_as_of = infinity };
    next_seq = 0;
    live = 0;
  }

let now t = t.clock.now
let clock t = t.clock

let pending t = t.live

(* The entry at heap index [i] fires before the one at [j]: earlier
   time, or the same time and an earlier as-of instant, or both the
   same and scheduled earlier. Times are never NaN. Entries are
   compared in place, by index, so no float is boxed. *)
let before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj
  || (not (tj < ti))
     &&
     let ai = t.as_ofs.(i) and aj = t.as_ofs.(j) in
     ai < aj || ((not (aj < ai)) && t.ids.(i) < t.ids.(j))

let swap t i j =
  let ti = t.times.(i) and ai = t.as_ofs.(i) and ii = t.ids.(i) in
  t.times.(i) <- t.times.(j);
  t.as_ofs.(i) <- t.as_ofs.(j);
  t.ids.(i) <- t.ids.(j);
  t.times.(j) <- ti;
  t.as_ofs.(j) <- ai;
  t.ids.(j) <- ii

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let take_slot t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else begin
    let s = t.slots in
    if s > slot_mask then failwith "Engine: too many pending events";
    if s = Array.length t.actions then begin
      t.actions <- grow t.actions ignore;
      t.owner <- grow t.owner (-1);
      t.free <- grow t.free 0
    end;
    t.slots <- s + 1;
    s
  end

let release t slot =
  t.actions.(slot) <- ignore;
  t.owner.(slot) <- -1;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if before t i p then begin
      swap t i p;
      sift_up t p
    end
  end

let[@inline] push t time as_of id =
  if t.size = Array.length t.times then begin
    t.times <- grow t.times 0.0;
    t.as_ofs <- grow t.as_ofs 0.0;
    t.ids <- grow t.ids 0
  end;
  t.times.(t.size) <- time;
  t.as_ofs.(t.size) <- as_of;
  t.ids.(t.size) <- id;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Remove the root: the last entry sifts down from a hole at the top,
   earlier children moving up a level, and fills the hole where it
   stops. It is held in locals and compared inline, as [before] in
   that order, so its time is never boxed. *)
let remove_root t =
  let n = t.size - 1 in
  t.size <- n;
  let times = t.times and as_ofs = t.as_ofs and ids = t.ids in
  let time = times.(n) and as_of = as_ofs.(n) and id = ids.(n) in
  let i = ref 0 and placed = ref false in
  while not !placed do
    let l = (2 * !i) + 1 in
    if l >= n then placed := true
    else begin
      let c = if l + 1 < n && before t (l + 1) l then l + 1 else l in
      let tc = times.(c) in
      if
        tc < time
        || (not (time < tc))
           &&
           let ac = as_ofs.(c) in
           ac < as_of || ((not (as_of < ac)) && ids.(c) < id)
      then begin
        times.(!i) <- tc;
        as_ofs.(!i) <- as_ofs.(c);
        ids.(!i) <- ids.(c);
        i := c
      end
      else placed := true
    end
  done;
  times.(!i) <- time;
  as_ofs.(!i) <- as_of;
  ids.(!i) <- id

let[@inline] insert t ~time ~as_of action =
  let seq = t.next_seq in
  if seq > max_seq then failwith "Engine: event ids exhausted";
  t.next_seq <- seq + 1;
  let slot = take_slot t in
  let id = (seq lsl slot_bits) lor slot in
  t.actions.(slot) <- action;
  t.owner.(slot) <- id;
  push t time as_of id;
  t.live <- t.live + 1;
  id

let schedule_at t ~time action =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  if time < t.clock.now then invalid_arg "Engine.schedule_at: time in the past";
  insert t ~time ~as_of:t.clock.now action

let[@inline] schedule_as_of t ~as_of ~time action =
  if Float.is_nan time then invalid_arg "Engine.schedule_as_of: NaN time";
  if not (t.clock.now <= as_of && as_of <= time) then
    invalid_arg "Engine.schedule_as_of: need now <= as_of <= time";
  insert t ~time ~as_of action

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  insert t ~time:(t.clock.now +. delay) ~as_of:t.clock.now action

let cancel t id =
  let slot = id land slot_mask in
  if slot < t.slots && t.owner.(slot) = id then begin
    release t slot;
    t.live <- t.live - 1;
    t.stale <- t.stale + 1
  end

(* Drop cancelled entries so the root, if any, is a live event. *)
let rec drop_cancelled t =
  if t.stale > 0 && t.size > 0 then begin
    let id = t.ids.(0) in
    if t.owner.(id land slot_mask) <> id then begin
      remove_root t;
      t.stale <- t.stale - 1;
      drop_cancelled t
    end
  end

let step t =
  drop_cancelled t;
  if t.size = 0 then false
  else begin
    let id = t.ids.(0) in
    t.clock.now <- t.times.(0);
    t.clock.firing_as_of <- t.as_ofs.(0);
    remove_root t;
    let slot = id land slot_mask in
    let action = t.actions.(slot) in
    release t slot;
    t.live <- t.live - 1;
    (match action () with
    | () -> t.clock.firing_as_of <- infinity
    | exception e ->
      t.clock.firing_as_of <- infinity;
      raise e);
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    drop_cancelled t;
    while t.size > 0 && not (t.times.(0) > limit) do
      ignore (step t : bool);
      drop_cancelled t
    done;
    if t.clock.now < limit then t.clock.now <- limit
