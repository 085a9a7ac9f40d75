module Sorted_tbl = Mdr_util.Sorted_tbl

type entry = { head : int; tail : int; cost : float }

type csr = { row : int array; dst : int array; cost : float array }

(* An edit not yet merged into a cached view: the [key -> other] edge
   (head -> tail in the forward view, tail -> head in the transpose)
   now costs [to_cost], or is gone when that is [infinity]. The cost is
   stored so that a merge needs no hash lookup. *)
type edit = { key : int; other : int; to_cost : float }

(* A cached view always describes the table's current contents: [view]
   with [log] applied on top. *)
type view_cache = {
  n : int;
  view : csr;
  owned : bool;
      (* false after [copy]: [view] is shared with another table, so an
         in-place cost patch must clone the cost column first *)
  log : edit list;  (* newest first *)
  logged : int;  (* length of [log] *)
}

type t = {
  links : (int * int, float) Hashtbl.t;
  adjacency : (int, (int, float) Hashtbl.t) Hashtbl.t;
  mutable csr_cache : view_cache option;
  mutable csr_in_cache : view_cache option;  (* transpose view *)
}

let create () =
  {
    links = Hashtbl.create 32;
    adjacency = Hashtbl.create 16;
    csr_cache = None;
    csr_in_cache = None;
  }

(* The copy shares the original's cached views — view arrays are only
   ever written by an in-place cost patch, which clones an unowned cost
   column first, and the edit logs are immutable, so sharing is safe
   and the copy's first shortest-path run skips the rebuild. *)
let copy t =
  let fresh = create () in
  Sorted_tbl.iter (fun k v -> Hashtbl.replace fresh.links k v) t.links;
  Sorted_tbl.iter
    (fun h out -> Hashtbl.replace fresh.adjacency h (Hashtbl.copy out))
    t.adjacency;
  let share = Option.map (fun c -> { c with owned = false }) in
  t.csr_cache <- share t.csr_cache;
  t.csr_in_cache <- share t.csr_in_cache;
  fresh.csr_cache <- t.csr_cache;
  fresh.csr_in_cache <- t.csr_in_cache;
  fresh

let clear t =
  if Hashtbl.length t.links > 0 then begin
    Hashtbl.reset t.links;
    Hashtbl.reset t.adjacency;
    t.csr_cache <- None;
    t.csr_in_cache <- None
  end

(* In-place CSR patch for a pure cost change: the edge set is
   unchanged, so a fresh view would have identical row/dst arrays —
   only one cost cell moves. Finding it is a binary search over the
   (sorted) destination slice of [head]'s row. *)
let patch_cost view ~key ~other ~cost =
  let lo = ref view.row.(key) and hi = ref (view.row.(key + 1) - 1) in
  let idx = ref (-1) in
  while !idx < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let d = view.dst.(mid) in
    if d = other then idx := mid
    else if d < other then lo := mid + 1
    else hi := mid - 1
  done;
  if !idx >= 0 then view.cost.(!idx) <- cost

(* Carry a cached view over one mutation of the [key -> other] edge.
   [bounded] says the view also drops edges whose [other] end is
   outside [0, n) (the transpose view). A cost change to a view with no
   pending edits is patched in place; anything else is logged, until
   the log would hold as many edits as the view has edges — then a
   rebuild is cheaper than a merge, so the view is dropped. *)
let log_edit cache ~key ~other ~cost ~structural ~bounded =
  match cache with
  | None -> None
  | Some c ->
    if key < 0 || key >= c.n || (bounded && (other < 0 || other >= c.n)) then cache
    else if c.log = [] && not structural then
      if c.owned then begin
        patch_cost c.view ~key ~other ~cost;
        cache
      end
      else begin
        let view = { c.view with cost = Array.copy c.view.cost } in
        patch_cost view ~key ~other ~cost;
        Some { c with view; owned = true }
      end
    else if c.logged + 1 >= Array.length c.view.dst then None
    else
      Some
        { c with log = { key; other; to_cost = cost } :: c.log; logged = c.logged + 1 }

let log_edits t ~head ~tail ~cost ~structural =
  t.csr_cache <-
    log_edit t.csr_cache ~key:head ~other:tail ~cost ~structural ~bounded:false;
  t.csr_in_cache <-
    log_edit t.csr_in_cache ~key:tail ~other:head ~cost ~structural ~bounded:true

let set t ~head ~tail ~cost =
  if not (Float.is_finite cost) || cost < 0.0 then
    invalid_arg "Topo_table.set: cost must be finite and non-negative";
  if head = tail then invalid_arg "Topo_table.set: self-loop";
  match Hashtbl.find_opt t.links (head, tail) with
  | Some old when Float.equal old cost -> ()
  | found ->
    Hashtbl.replace t.links (head, tail) cost;
    let out =
      match Hashtbl.find_opt t.adjacency head with
      | Some out -> out
      | None ->
        let out = Hashtbl.create 4 in
        Hashtbl.replace t.adjacency head out;
        out
    in
    Hashtbl.replace out tail cost;
    log_edits t ~head ~tail ~cost ~structural:(Option.is_none found)

let remove t ~head ~tail =
  if Hashtbl.mem t.links (head, tail) then begin
    Hashtbl.remove t.links (head, tail);
    (match Hashtbl.find_opt t.adjacency head with
    | None -> ()
    | Some out ->
      Hashtbl.remove out tail;
      if Hashtbl.length out = 0 then Hashtbl.remove t.adjacency head);
    log_edits t ~head ~tail ~cost:infinity ~structural:true
  end

let cost t ~head ~tail = Hashtbl.find_opt t.links (head, tail)

let apply_entry t { head; tail; cost } =
  if Float.is_finite cost then set t ~head ~tail ~cost else remove t ~head ~tail

(* Monomorphic (head, tail) order: [entries] feeds both CSR builders,
   so this sort is the dominant cost of a view rebuild at scale. *)
let link_key_compare (h1, t1) (h2, t2) =
  if h1 = h2 then Int.compare t1 t2 else Int.compare (h1 : int) h2

let entries t =
  List.map
    (fun ((head, tail), cost) -> { head; tail; cost })
    (Sorted_tbl.bindings_by link_key_compare t.links)

let out_links t ~head =
  match Hashtbl.find_opt t.adjacency head with
  | None -> []
  | Some out ->
    Sorted_tbl.bindings_by Int.compare out

let nodes t =
  let seen = Hashtbl.create 16 in
  Sorted_tbl.iter
    (fun (head, tail) _ ->
      Hashtbl.replace seen head ();
      Hashtbl.replace seen tail ())
    t.links;
  Sorted_tbl.keys seen

let size t = Hashtbl.length t.links

(* (key, other) order, and only the newest edit of each edge: [log] is
   newest first and the sort is stable, so each run starts with it. *)
let net_edits log =
  let sorted =
    List.stable_sort
      (fun a b ->
        if a.key = b.key then Int.compare a.other b.other else Int.compare a.key b.key)
      log
  in
  let rec dedup acc = function
    | [] -> Array.of_list (List.rev acc)
    | e :: rest -> (
      match acc with
      | p :: _ when p.key = e.key && p.other = e.other -> dedup acc rest
      | _ -> dedup (e :: acc) rest)
  in
  dedup [] sorted

(* Merge sorted edits into a view in one linear pass, into fresh arrays
   (the old view may be shared with a copy). Each edit lands at the
   lower bound of its [other] in its row of the old view; the unedited
   runs between landings are blitted whole. *)
let merge old log =
  let edits = net_edits log in
  let k = Array.length edits in
  let n = Array.length old.row - 1 in
  let at = Array.make k 0 and hit = Array.make k false in
  for e = 0 to k - 1 do
    let { key; other; _ } = edits.(e) in
    let lo = ref old.row.(key) and hi = ref old.row.(key + 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if old.dst.(mid) < other then lo := mid + 1 else hi := mid
    done;
    at.(e) <- !lo;
    hit.(e) <- !lo < old.row.(key + 1) && old.dst.(!lo) = other
  done;
  let row = Array.make (n + 1) 0 in
  let shift = ref 0 and e = ref 0 in
  for i = 0 to n do
    while !e < k && edits.(!e).key < i do
      let finite = Float.is_finite edits.(!e).to_cost in
      if finite && not hit.(!e) then incr shift
      else if (not finite) && hit.(!e) then decr shift;
      incr e
    done;
    row.(i) <- old.row.(i) + !shift
  done;
  let m = row.(n) in
  let dst = Array.make m 0 and cost = Array.create_float m in
  let src = ref 0 and out = ref 0 in
  let copy_upto stop =
    let len = stop - !src in
    if len > 0 then begin
      (* [Array.blit] into an int array outside the minor heap runs a
         write barrier per element; a typed loop is a plain store. *)
      for i = 0 to len - 1 do
        dst.(!out + i) <- old.dst.(!src + i)
      done;
      Array.blit old.cost !src cost !out len;
      src := stop;
      out := !out + len
    end
  in
  for e = 0 to k - 1 do
    copy_upto at.(e);
    if hit.(e) then incr src;
    let { other; to_cost; _ } = edits.(e) in
    if Float.is_finite to_cost then begin
      dst.(!out) <- other;
      cost.(!out) <- to_cost;
      incr out
    end
  done;
  copy_upto (Array.length old.dst);
  { row; dst; cost }

let build_csr t ~n =
  (* [entries] is sorted by (head, tail), which is exactly CSR fill
     order — and per-head sorted by tail, the same order [out_links]
     yields, so algorithms see identical edge sequences either way. *)
  let es = entries t in
  let in_range e = e.head >= 0 && e.head < n in
  let row = Array.make (n + 1) 0 in
  List.iter (fun e -> if in_range e then row.(e.head + 1) <- row.(e.head + 1) + 1) es;
  for i = 1 to n do
    row.(i) <- row.(i) + row.(i - 1)
  done;
  let m = row.(n) in
  let dst = Array.make m 0 and cost = Array.make m 0.0 in
  let pos = ref 0 in
  List.iter
    (fun e ->
      if in_range e then begin
        dst.(!pos) <- e.tail;
        cost.(!pos) <- e.cost;
        incr pos
      end)
    es;
  { row; dst; cost }

let build_csr_in t ~n =
  (* Transpose view: rows indexed by tail, entries are in-edges.
     Only edges with both endpoints in [0, n) are kept — an in-edge
     from an out-of-range head would be useless to a shortest-path
     repair over nodes [0, n). Scanning [entries] (sorted by
     (head, tail)) and bucketing by tail yields each row's heads in
     ascending order, matching the forward view's per-row sort. *)
  let es = entries t in
  let in_range e = e.head >= 0 && e.head < n && e.tail >= 0 && e.tail < n in
  let row = Array.make (n + 1) 0 in
  List.iter (fun e -> if in_range e then row.(e.tail + 1) <- row.(e.tail + 1) + 1) es;
  for i = 1 to n do
    row.(i) <- row.(i) + row.(i - 1)
  done;
  let m = row.(n) in
  let dst = Array.make m 0 and cost = Array.make m 0.0 in
  let pos = Array.make n 0 in
  Array.blit row 0 pos 0 n;
  List.iter
    (fun e ->
      if in_range e then begin
        let p = pos.(e.tail) in
        dst.(p) <- e.head;
        cost.(p) <- e.cost;
        pos.(e.tail) <- p + 1
      end)
    es;
  { row; dst; cost }

(* The cache made current for width [n]: as is when it has no pending
   edits, merged when it has, rebuilt from [entries] when there is no
   view of that width. *)
let up_to_date cache t ~n ~build =
  match cache with
  | Some ({ n = cn; log = []; _ } as c) when cn = n -> c
  | Some c when c.n = n ->
    { n; view = merge c.view c.log; owned = true; log = []; logged = 0 }
  | Some _ | None -> { n; view = build t ~n; owned = true; log = []; logged = 0 }

let csr t ~n =
  let c = up_to_date t.csr_cache t ~n ~build:build_csr in
  t.csr_cache <- Some c;
  c.view

let csr_in t ~n =
  let c = up_to_date t.csr_in_cache t ~n ~build:build_csr_in in
  t.csr_in_cache <- Some c;
  c.view

let diff ~old_table ~new_table =
  let changes = ref [] in
  Sorted_tbl.iter
    (fun (head, tail) cost ->
      match Hashtbl.find_opt old_table.links (head, tail) with
      | Some old_cost when Float.equal old_cost cost -> ()
      | Some _ | None -> changes := { head; tail; cost } :: !changes)
    new_table.links;
  Sorted_tbl.iter
    (fun (head, tail) _ ->
      if not (Hashtbl.mem new_table.links (head, tail)) then
        changes := { head; tail; cost = infinity } :: !changes)
    old_table.links;
  List.sort
    (fun a b ->
      match Int.compare a.head b.head with
      | 0 -> Int.compare a.tail b.tail
      | c -> c)
    !changes

let equal a b =
  Hashtbl.length a.links = Hashtbl.length b.links
  && Sorted_tbl.fold
       (fun key cost acc ->
         acc
         &&
         match Hashtbl.find_opt b.links key with
         | Some c -> Float.equal c cost
         | None -> false)
       a.links true
