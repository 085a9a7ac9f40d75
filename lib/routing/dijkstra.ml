module Graph = Mdr_topology.Graph

type result = { dist : float array; parent : int array }

let rel_tolerance = 1e-12

let close a b =
  if Float.is_finite a && Float.is_finite b then
    let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
    Float.abs (a -. b) <= rel_tolerance *. scale
  else a = b

(* Scratch reused across runs: the settled bitmap, the binary heap as
   two parallel primitive arrays (no tuple per entry, no closure per
   comparison), and a parent buffer for callers that discard parents.
   One workspace serves one domain; parallel tasks each own theirs. *)
type workspace = {
  mutable settled : bool array;
  mutable heap_d : float array;
  mutable heap_n : int array;
  mutable scratch_parent : int array;
}

let workspace () =
  {
    settled = [||];
    heap_d = Array.make 64 0.0;
    heap_n = Array.make 64 0;
    scratch_parent = [||];
  }

let settled_for ws n =
  if Array.length ws.settled < n then ws.settled <- Array.make n false
  else Array.fill ws.settled 0 n false;
  ws.settled

let scratch_parent_for ws n =
  if Array.length ws.scratch_parent < n then ws.scratch_parent <- Array.make n (-1);
  ws.scratch_parent

(* The heap orders by (distance, node id) — the same lexicographic
   order the old polymorphic-compare heap used, minus the tuple
   allocation per element and per comparison. Exact duplicates may pop
   in either order, but a duplicate of a settled node is a no-op, so
   results are identical. *)
let run_into ws ~n ~root ~dist ~parent ~edges =
  if root < 0 || root >= n then invalid_arg "Dijkstra: root out of range";
  if Array.length dist < n || Array.length parent < n then
    invalid_arg "Dijkstra: result buffers shorter than n";
  Array.fill dist 0 n infinity;
  Array.fill parent 0 n (-1);
  let settled = settled_for ws n in
  let len = ref 0 in
  let push d v =
    if !len = Array.length ws.heap_d then begin
      let cap = 2 * !len in
      let heap_d = Array.make cap 0.0 and heap_n = Array.make cap 0 in
      Array.blit ws.heap_d 0 heap_d 0 !len;
      Array.blit ws.heap_n 0 heap_n 0 !len;
      ws.heap_d <- heap_d;
      ws.heap_n <- heap_n
    end;
    let hd = ws.heap_d and hn = ws.heap_n in
    let i = ref !len in
    incr len;
    let sifting = ref true in
    while !sifting && !i > 0 do
      let p = (!i - 1) / 2 in
      if d < hd.(p) || (d = hd.(p) && v < hn.(p)) then begin
        hd.(!i) <- hd.(p);
        hn.(!i) <- hn.(p);
        i := p
      end
      else sifting := false
    done;
    hd.(!i) <- d;
    hn.(!i) <- v
  in
  dist.(root) <- 0.0;
  push 0.0 root;
  while !len > 0 do
    let hd = ws.heap_d and hn = ws.heap_n in
    let d = hd.(0) and u = hn.(0) in
    decr len;
    if !len > 0 then begin
      (* Re-insert the last leaf at the root and sift it down. *)
      let ld = hd.(!len) and lv = hn.(!len) in
      let i = ref 0 in
      let sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= !len then sifting := false
        else begin
          let r = l + 1 in
          let c =
            if r < !len && (hd.(r) < hd.(l) || (hd.(r) = hd.(l) && hn.(r) < hn.(l)))
            then r
            else l
          in
          if hd.(c) < ld || (hd.(c) = ld && hn.(c) < lv) then begin
            hd.(!i) <- hd.(c);
            hn.(!i) <- hn.(c);
            i := c
          end
          else sifting := false
        end
      done;
      hd.(!i) <- ld;
      hn.(!i) <- lv
    end;
    if (not settled.(u)) && close d dist.(u) then begin
      settled.(u) <- true;
      edges u (fun v w ->
          if w < 0.0 then invalid_arg "Dijkstra: negative link cost";
          if v >= 0 && v < n && not settled.(v) then begin
            let nd = d +. w in
            if nd < dist.(v) && not (close nd dist.(v)) then begin
              dist.(v) <- nd;
              parent.(v) <- u;
              push nd v
            end
            else if close nd dist.(v) && (parent.(v) = -1 || u < parent.(v)) then
              (* Consistent tie-breaking: smallest-id predecessor. *)
              parent.(v) <- u
          end)
    end
  done

let fresh_run ws ~n ~root ~edges =
  let ws = match ws with Some ws -> ws | None -> workspace () in
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  run_into ws ~n ~root ~dist ~parent ~edges;
  { dist; parent }

(* [u]'s out-row, ascending by tail; [run_into] skips tails >= n. *)
let table_edges table u visit =
  let rec walk = function
    | [] -> ()
    | (v, w) :: rest ->
      visit v w;
      walk rest
  in
  walk (Topo_table.out_links table ~head:u)

let on_table ?ws ~n ~root table = fresh_run ws ~n ~root ~edges:(table_edges table)

let on_table_into ws ~n ~root ~dist ~parent table =
  run_into ws ~n ~root ~dist ~parent ~edges:(table_edges table)

let graph_edges view ~cost ~forward =
  fun u visit ->
    for e = view.Graph.row.(u) to view.Graph.row.(u + 1) - 1 do
      let l = view.Graph.links.(e) in
      let w = cost l in
      if Float.is_finite w then visit (if forward then l.Graph.dst else l.Graph.src) w
    done

let on_graph ?ws g ~root ~cost =
  fresh_run ws ~n:(Graph.node_count g)
    ~root
    ~edges:(graph_edges (Graph.out_csr g) ~cost ~forward:true)

let tree_of_result ~n ~root result ~cost =
  let tree = Topo_table.create () in
  for j = 0 to n - 1 do
    if j <> root && result.parent.(j) >= 0 && Float.is_finite result.dist.(j) then begin
      let p = result.parent.(j) in
      Topo_table.set tree ~head:p ~tail:j ~cost:(cost ~head:p ~tail:j)
    end
  done;
  tree

let distances_to ?ws g ~dst ~cost =
  (* Reverse traversal: from [u], step across links that *enter* u.
     With symmetric topologies this is the reverse link's source. *)
  let n = Graph.node_count g in
  let edges = graph_edges (Graph.in_csr g) ~cost ~forward:false in
  match ws with
  | None -> (fresh_run None ~n ~root:dst ~edges).dist
  | Some ws ->
    (* Callers retain the distances, so those stay fresh; the parents
       are discarded and go to workspace scratch. *)
    let dist = Array.make n infinity in
    run_into ws ~n ~root:dst ~dist ~parent:(scratch_parent_for ws n) ~edges;
    dist
