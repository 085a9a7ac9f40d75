(* Reference flow solver for the differential property in
   [Test_fluid_flat]: the list-and-Hashtbl form of [Flows.compute] and
   [Flows.topological_order] that the flat-array solver replaced,
   written only against the public [Params] and [Traffic] interfaces.
   It must stay this simple; it is the oracle, not a second fast path. *)

module Graph = Mdr_topology.Graph
module Params = Mdr_fluid.Params
module Traffic = Mdr_fluid.Traffic

exception Cyclic_routing of int

type t = {
  node_flows : float array array;
  link_flows : (int * int, float) Hashtbl.t;
}

let topological_order params ~dst =
  let topo = Params.topology params in
  let n = Graph.node_count topo in
  (* Kahn's algorithm over SG_dst: edge i -> k when phi_{i,dst,k} > 0. *)
  let indegree = Array.make n 0 in
  let succs = Array.init n (fun node -> Params.successors params ~node ~dst) in
  Array.iter (List.iter (fun k -> indegree.(k) <- indegree.(k) + 1)) succs;
  let ready = Queue.create () in
  for node = 0 to n - 1 do
    if indegree.(node) = 0 then Queue.add node ready
  done;
  let order = ref [] in
  let emitted = ref 0 in
  while not (Queue.is_empty ready) do
    let node = Queue.pop ready in
    order := node :: !order;
    incr emitted;
    let relax k =
      indegree.(k) <- indegree.(k) - 1;
      if indegree.(k) = 0 then Queue.add k ready
    in
    List.iter relax succs.(node)
  done;
  if !emitted <> n then raise (Cyclic_routing dst);
  List.rev !order

let add_link_flow table ~src ~dst amount =
  let key = (src, dst) in
  let current = try Hashtbl.find table key with Not_found -> 0.0 in
  Hashtbl.replace table key (current +. amount)

let solve_destination_exact params traffic node_flows link_flows ~dst =
  let order = topological_order params ~dst in
  let propagate node =
    if node <> dst then begin
      let t_node = node_flows.(node).(dst) +. Traffic.rate traffic ~src:node ~dst in
      node_flows.(node).(dst) <- t_node;
      if t_node > 0.0 then
        List.iter
          (fun (via, frac) ->
            let share = t_node *. frac in
            node_flows.(via).(dst) <- node_flows.(via).(dst) +. (if via = dst then 0.0 else share);
            add_link_flow link_flows ~src:node ~dst:via share)
          (Params.fractions params ~node ~dst)
    end
  in
  List.iter propagate order

let solve_destination_iterative params traffic node_flows link_flows ~dst =
  let topo = Params.topology params in
  let n = Graph.node_count topo in
  let t_cur = Array.make n 0.0 in
  let t_next = Array.make n 0.0 in
  let max_iters = 10_000 and eps = 1e-9 in
  let rec iterate iter =
    for i = 0 to n - 1 do
      t_next.(i) <- (if i = dst then 0.0 else Traffic.rate traffic ~src:i ~dst)
    done;
    for k = 0 to n - 1 do
      if k <> dst && t_cur.(k) > 0.0 then
        List.iter
          (fun (via, frac) ->
            if via <> dst then t_next.(via) <- t_next.(via) +. (t_cur.(k) *. frac))
          (Params.fractions params ~node:k ~dst)
    done;
    let delta = ref 0.0 in
    for i = 0 to n - 1 do
      delta := Float.max !delta (Float.abs (t_next.(i) -. t_cur.(i)));
      t_cur.(i) <- t_next.(i)
    done;
    if !delta > eps && iter < max_iters then iterate (iter + 1)
  in
  iterate 0;
  for node = 0 to n - 1 do
    if node <> dst then begin
      node_flows.(node).(dst) <- t_cur.(node);
      if t_cur.(node) > 0.0 then
        List.iter
          (fun (via, frac) ->
            add_link_flow link_flows ~src:node ~dst:via (t_cur.(node) *. frac))
          (Params.fractions params ~node ~dst)
    end
  done

let compute ?(iterative_fallback = false) params traffic =
  let topo = Params.topology params in
  let n = Graph.node_count topo in
  let node_flows = Array.make_matrix n n 0.0 in
  let link_flows = Hashtbl.create (Graph.link_count topo) in
  let solve dst =
    try solve_destination_exact params traffic node_flows link_flows ~dst
    with Cyclic_routing _ when iterative_fallback ->
      for i = 0 to n - 1 do
        node_flows.(i).(dst) <- 0.0
      done;
      solve_destination_iterative params traffic node_flows link_flows ~dst
  in
  List.iter solve (Traffic.destinations traffic);
  { node_flows; link_flows }

let link_flow t ~src ~dst =
  try Hashtbl.find t.link_flows (src, dst) with Not_found -> 0.0
