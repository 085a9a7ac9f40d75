(* In-memory span recorder. A span is (name, start, stop, parent, run):
   [parent] is the index of the span open when it began (-1 for a root)
   and [run] the caller-chosen id of the request the span served (an
   update's sequence number, a change's index). Spans are only appended
   and closed, so recording costs two clock reads and a few array
   writes; everything else happens after the run. *)

type t = {
  mutable names : string array;
  ids : (string, int) Hashtbl.t;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable run : int array;
  mutable len : int;
  mutable open_ : int;
  mutable run_id : int;
}

let create () =
  let cap = 4096 in
  {
    names = [||];
    ids = Hashtbl.create 16;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    run = Array.make cap 0;
    len = 0;
    open_ = -1;
    run_id = 0;
  }

(* Intern a span name once, outside the measured loop. *)
let name t s =
  match Hashtbl.find_opt t.ids s with
  | Some id -> id
  | None ->
      let id = Array.length t.names in
      t.names <- Array.append t.names [| s |];
      Hashtbl.add t.ids s id;
      id

let set_run t id = t.run_id <- id

let grow t =
  let cap = 2 * Array.length t.name in
  let g a = let b = Array.make cap 0 in Array.blit a 0 b 0 t.len; b in
  t.name <- g t.name;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.run <- g t.run

let add t ~name ~start ~stop ~parent ~run =
  if t.len = Array.length t.name then grow t;
  let i = t.len in
  t.name.(i) <- name;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.run.(i) <- run;
  t.len <- i + 1;
  i

let span t id f =
  let parent = t.open_ in
  let i = add t ~name:id ~start:(Clock.now_ns ()) ~stop:0 ~parent ~run:t.run_id in
  t.open_ <- i;
  match f () with
  | v ->
      t.stop.(i) <- Clock.now_ns ();
      t.open_ <- parent;
      v
  | exception e ->
      t.stop.(i) <- Clock.now_ns ();
      t.open_ <- parent;
      raise e

(* [span] when tracing, a plain call otherwise: the one way a workload
   makes its spans optional. The name is interned on each call, so the
   hot loops that need it cheaper take an id once and call [span]. *)
let span_opt t s f = match t with None -> f () | Some t -> span t (name t s) f

let length t = t.len
let duration t i = t.stop.(i) - t.start.(i)

(* Length of the union of [ivs] (start, stop) clipped to [lo, hi]. *)
let union_within ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) ivs
  in
  match cur with None -> total | Some (a, b) -> total + (b - a)

(* Self time of every span: its duration minus the part of its interval
   covered by its direct children. *)
let self_times t =
  let children = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- (t.start.(i), t.stop.(i)) :: children.(p)
  done;
  Array.init t.len (fun i ->
      duration t i - union_within ~lo:t.start.(i) ~hi:t.stop.(i) children.(i))

(* Share of the given [(lo, hi)] sections of wall time that lies inside
   some root span. *)
let coverage t sections =
  let roots = ref [] in
  for i = 0 to t.len - 1 do
    if t.parent.(i) < 0 then roots := (t.start.(i), t.stop.(i)) :: !roots
  done;
  let covered, total =
    List.fold_left
      (fun (c, w) (lo, hi) -> (c + union_within ~lo ~hi !roots, w + max 0 (hi - lo)))
      (0, 0) sections
  in
  if total = 0 then 0.0 else float_of_int covered /. float_of_int total

type summary = {
  calls : int;
  total_ns : int;
  self_ns : int;
  durations_ns : float array;  (* one per call, in call order *)
}

let summarize t =
  let self = self_times t in
  let k = Array.length t.names in
  let calls = Array.make k 0 and total = Array.make k 0 and selfs = Array.make k 0 in
  let durs = Array.init k (fun _ -> Stats.buf ()) in
  for i = 0 to t.len - 1 do
    let n = t.name.(i) in
    calls.(n) <- calls.(n) + 1;
    total.(n) <- total.(n) + duration t i;
    selfs.(n) <- selfs.(n) + self.(i);
    Stats.push durs.(n) (float_of_int (duration t i))
  done;
  fun s ->
    match Hashtbl.find_opt t.ids s with
    | None -> { calls = 0; total_ns = 0; self_ns = 0; durations_ns = [||] }
    | Some n ->
        {
          calls = calls.(n);
          total_ns = total.(n);
          self_ns = selfs.(n);
          durations_ns = Stats.contents durs.(n);
        }

(* One tab-separated line per span: index, name, start, stop (ns),
   parent index, run id. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tname\tstart_ns\tstop_ns\tparent\trun\n";
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.names.(t.name.(i))
          t.start.(i) t.stop.(i) t.parent.(i) t.run.(i)
      done)

(* Duration of the most recently opened span (valid once it closed and
   when it opened no children). *)
let last_duration t = duration t (t.len - 1)
