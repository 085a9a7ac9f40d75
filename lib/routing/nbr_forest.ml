type entry = Topo_table.entry = { head : int; tail : int; cost : float }

type t = {
  n : int;
  root : int;
  parent : int array;  (* head of the one link into v; -1 = none *)
  up_cost : float array;  (* cost of that link *)
  first_child : int array;
  next_sib : int array;
      (* child lists in descending id order, so one walk consing each
         child yields the ascending list *)
  dist : float array;
}

type ws = {
  mutable stamp : int;
  mutable mark : int array;  (* per node: the stamp of the pass that last saw it *)
  mutable indeg : int array;  (* validation: links into v once the batch is applied *)
  mutable stack : int array;
  mutable region : int array;  (* nodes whose distance is being recomputed *)
}

let workspace () =
  { stamp = 0; mark = [||]; indeg = [||]; stack = [||]; region = [||] }

let fit ws n =
  if Array.length ws.mark < n then begin
    ws.mark <- Array.make n 0;
    ws.stamp <- 0;
    ws.indeg <- Array.make n 0;
    ws.stack <- Array.make n 0;
    ws.region <- Array.make n 0
  end

let fresh_stamp ws =
  ws.stamp <- ws.stamp + 1;
  ws.stamp

let create ~n ~root =
  if root < 0 || root >= n then invalid_arg "Nbr_forest.create: root out of range";
  let dist = Array.make n infinity in
  dist.(root) <- 0.0;
  {
    n;
    root;
    parent = Array.make n (-1);
    up_cost = Array.make n 0.0;
    first_child = Array.make n (-1);
    next_sib = Array.make n (-1);
    dist;
  }

let copy f =
  {
    f with
    parent = Array.copy f.parent;
    up_cost = Array.copy f.up_cost;
    first_child = Array.copy f.first_child;
    next_sib = Array.copy f.next_sib;
    dist = Array.copy f.dist;
  }

let clear f =
  Array.fill f.parent 0 f.n (-1);
  Array.fill f.first_child 0 f.n (-1);
  Array.fill f.next_sib 0 f.n (-1);
  Array.fill f.dist 0 f.n infinity;
  f.dist.(f.root) <- 0.0

let root f = f.root
let dist f = f.dist

let spf_parent f j = if Float.is_finite f.dist.(j) then f.parent.(j) else -1

let children f j =
  let rec walk v acc =
    if v < 0 then acc else walk f.next_sib.(v) ((v, f.up_cost.(v)) :: acc)
  in
  walk f.first_child.(j) []

let is_leaf f j = f.first_child.(j) < 0

let entries f =
  let acc = ref [] in
  for head = f.n - 1 downto 0 do
    let v = ref f.first_child.(head) in
    while !v >= 0 do
      acc := { head; tail = !v; cost = f.up_cost.(!v) } :: !acc;
      v := f.next_sib.(!v)
    done
  done;
  !acc

(* --- Structure --------------------------------------------------------- *)

let link f ~head v c =
  f.parent.(v) <- head;
  f.up_cost.(v) <- c;
  let first = f.first_child.(head) in
  if first < v then begin
    f.next_sib.(v) <- first;
    f.first_child.(head) <- v
  end
  else begin
    let prev = ref first in
    while f.next_sib.(!prev) > v do
      prev := f.next_sib.(!prev)
    done;
    f.next_sib.(v) <- f.next_sib.(!prev);
    f.next_sib.(!prev) <- v
  end

let unlink f v =
  let p = f.parent.(v) in
  if f.first_child.(p) = v then f.first_child.(p) <- f.next_sib.(v)
  else begin
    let prev = ref f.first_child.(p) in
    while f.next_sib.(!prev) <> v do
      prev := f.next_sib.(!prev)
    done;
    f.next_sib.(!prev) <- f.next_sib.(v)
  end;
  f.next_sib.(v) <- -1;
  f.parent.(v) <- -1

(* --- Batch planning ---------------------------------------------------- *)

let reject fmt = Printf.ksprintf (fun m -> invalid_arg ("Nbr_forest: " ^ m)) fmt

let check_entry f e =
  if e.head < 0 || e.head >= f.n || e.tail < 0 || e.tail >= f.n then
    reject "link %d -> %d names a node outside [0, %d)" e.head e.tail f.n;
  if e.head = e.tail then reject "self-loop at node %d" e.head;
  if Float.is_finite e.cost && e.cost < 0.0 then
    reject "link %d -> %d has negative cost" e.head e.tail

let entry_compare a b =
  match Int.compare a.head b.head with 0 -> Int.compare a.tail b.tail | c -> c

(* The final entry per link, sorted by (head, tail). LSUs arrive sorted
   and duplicate-free, so the common case only checks that. *)
let last_per_link entries =
  let rec strictly_sorted = function
    | a :: (b :: _ as rest) -> entry_compare a b < 0 && strictly_sorted rest
    | [ _ ] | [] -> true
  in
  if strictly_sorted entries then entries
  else
    let rec keep_last acc = function
      | a :: (b :: _ as rest) when entry_compare a b = 0 -> keep_last acc rest
      | a :: rest -> keep_last (a :: acc) rest
      | [] -> List.rev acc
    in
    keep_last [] (List.stable_sort entry_compare entries)

(* Net changes against the current table (against the empty table when
   [from_empty]), after checking that applying them leaves an
   in-forest. Mutates nothing but the workspace. *)
let plan ws f ~from_empty entries =
  List.iter (check_entry f) entries;
  let has_link e = (not from_empty) && f.parent.(e.tail) = e.head in
  let net =
    List.filter
      (fun e ->
        if Float.is_finite e.cost then
          not (has_link e && Float.equal f.up_cost.(e.tail) e.cost)
        else has_link e)
      (last_per_link entries)
  in
  let s = fresh_stamp ws in
  List.iter
    (fun e ->
      let v = e.tail in
      if ws.mark.(v) <> s then begin
        ws.mark.(v) <- s;
        ws.indeg.(v) <- (if (not from_empty) && f.parent.(v) >= 0 then 1 else 0)
      end;
      if not (Float.is_finite e.cost) then ws.indeg.(v) <- ws.indeg.(v) - 1
      else if not (has_link e) then begin
        if v = f.root then reject "link %d -> %d leads into the root" e.head v;
        ws.indeg.(v) <- ws.indeg.(v) + 1
      end)
    net;
  List.iter
    (fun e -> if ws.indeg.(e.tail) > 1 then reject "node %d would have two parents" e.tail)
    net;
  net

(* Removals and cost changes first, then new links: a node moving to a
   new parent is detached before it is re-attached, whatever order the
   two entries came in. *)
let commit f net =
  List.iter
    (fun e ->
      if f.parent.(e.tail) = e.head then
        if Float.is_finite e.cost then f.up_cost.(e.tail) <- e.cost else unlink f e.tail)
    net;
  List.iter
    (fun e ->
      if Float.is_finite e.cost && f.parent.(e.tail) <> e.head then
        link f ~head:e.head e.tail e.cost)
    net

(* --- Distances --------------------------------------------------------- *)

(* Walk down from [top], whose distance is final, handing each
   descendant its distance [dist parent + cost] to [visit], which must
   store it before the walk reads it for the next level. *)
let descend ws f top ~visit =
  let stack = ws.stack and sp = ref 1 in
  stack.(0) <- top;
  while !sp > 0 do
    decr sp;
    let u = stack.(!sp) in
    let du = f.dist.(u) in
    let c = ref f.first_child.(u) in
    while !c >= 0 do
      let v = !c in
      visit v (du +. f.up_cost.(v));
      stack.(!sp) <- v;
      incr sp;
      c := f.next_sib.(v)
    done
  done

let recompute ws f =
  fit ws f.n;
  Array.fill f.dist 0 f.n infinity;
  f.dist.(f.root) <- 0.0;
  descend ws f f.root ~visit:(fun v d -> f.dist.(v) <- d)

(* Only nodes below a re-linked or re-costed node can change distance.
   Collect that region, then walk down from each region node whose
   parent lies outside it (that parent's distance is final). What the
   walks miss hangs off a cycle and is unreachable. *)
let update_region ws f net ~on_changed =
  let s_in = fresh_stamp ws in
  let s_done = fresh_stamp ws in
  let mark = ws.mark and region = ws.region and stack = ws.stack in
  let len = ref 0 in
  List.iter
    (fun e ->
      if mark.(e.tail) <> s_in then begin
        mark.(e.tail) <- s_in;
        stack.(0) <- e.tail;
        let sp = ref 1 in
        while !sp > 0 do
          decr sp;
          let u = stack.(!sp) in
          region.(!len) <- u;
          incr len;
          let c = ref f.first_child.(u) in
          while !c >= 0 do
            if mark.(!c) <> s_in then begin
              mark.(!c) <- s_in;
              stack.(!sp) <- !c;
              incr sp
            end;
            c := f.next_sib.(!c)
          done
        done
      end)
    net;
  let assign v d =
    mark.(v) <- s_done;
    let old = f.dist.(v) in
    f.dist.(v) <- d;
    if not (Float.equal old d) then on_changed v
  in
  for i = 0 to !len - 1 do
    let u = region.(i) in
    if mark.(u) = s_in then begin
      let p = f.parent.(u) in
      if p < 0 || (mark.(p) <> s_in && mark.(p) <> s_done) then begin
        assign u (if p < 0 then infinity else f.dist.(p) +. f.up_cost.(u));
        descend ws f u ~visit:assign
      end
    end
  done;
  for i = 0 to !len - 1 do
    if mark.(region.(i)) = s_in then assign region.(i) infinity
  done

let apply ?(on_changed = ignore) ws f entries =
  fit ws f.n;
  let net = plan ws f ~from_empty:false entries in
  commit f net;
  update_region ws f net ~on_changed;
  net

let load ws f entries =
  fit ws f.n;
  let net = plan ws f ~from_empty:true entries in
  clear f;
  commit f net;
  recompute ws f
