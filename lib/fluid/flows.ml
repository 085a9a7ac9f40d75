module Graph = Mdr_topology.Graph

exception Cyclic_routing of int

type t = {
  node_flows : float array array;
  link_flows : float array;
  layout : Params.layout;
}

(* Kahn's algorithm over SG_dst (edge i -> k when phi_{i,dst,k} > 0),
   with [order] doubling as the FIFO queue: routers with no
   predecessor enter in id order, and each popped router releases its
   successors in slot order. *)
let topological_order_into params ~dst ~order ~indegree =
  let n = Graph.node_count (Params.topology params) in
  Array.fill indegree 0 n 0;
  for node = 0 to n - 1 do
    let row = Params.row params ~node ~dst and nbrs = Params.neighbor_array params node in
    for s = 0 to Array.length row - 1 do
      if row.(s) > 0.0 then indegree.(nbrs.(s)) <- indegree.(nbrs.(s)) + 1
    done
  done;
  let tail = ref 0 in
  for node = 0 to n - 1 do
    if indegree.(node) = 0 then begin
      order.(!tail) <- node;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let node = order.(!head) in
    incr head;
    let row = Params.row params ~node ~dst and nbrs = Params.neighbor_array params node in
    for s = 0 to Array.length row - 1 do
      if row.(s) > 0.0 then begin
        let k = nbrs.(s) in
        indegree.(k) <- indegree.(k) - 1;
        if indegree.(k) = 0 then begin
          order.(!tail) <- k;
          incr tail
        end
      end
    done
  done;
  if !tail <> n then raise (Cyclic_routing dst)

let topological_order params ~dst =
  let n = Graph.node_count (Params.topology params) in
  let order = Array.make n 0 in
  topological_order_into params ~dst ~order ~indegree:(Array.make n 0);
  Array.to_list order

let solve_destination_exact params rates node_flows link_flows ~order ~dst =
  let layout = Params.layout params in
  for idx = 0 to Array.length order - 1 do
    let node = order.(idx) in
    if node <> dst then begin
      let t_node = node_flows.(node).(dst) +. rates.(node).(dst) in
      node_flows.(node).(dst) <- t_node;
      if t_node > 0.0 then begin
        let row = Params.row params ~node ~dst
        and nbrs = Params.neighbor_array params node
        and base = Params.first_slot layout node in
        for s = 0 to Array.length row - 1 do
          let frac = row.(s) in
          if frac > 0.0 then begin
            let via = nbrs.(s) in
            let share = t_node *. frac in
            node_flows.(via).(dst) <-
              node_flows.(via).(dst) +. (if via = dst then 0.0 else share);
            link_flows.(base + s) <- link_flows.(base + s) +. share
          end
        done
      end
    end
  done

let solve_destination_iterative params rates node_flows link_flows ~dst =
  let n = Graph.node_count (Params.topology params) in
  let layout = Params.layout params in
  let t_cur = Array.make n 0.0 in
  let t_next = Array.make n 0.0 in
  let max_iters = 10_000 and eps = 1e-9 in
  let rec iterate iter =
    for i = 0 to n - 1 do
      t_next.(i) <- (if i = dst then 0.0 else rates.(i).(dst))
    done;
    for k = 0 to n - 1 do
      if k <> dst && t_cur.(k) > 0.0 then begin
        let row = Params.row params ~node:k ~dst and nbrs = Params.neighbor_array params k in
        for s = 0 to Array.length row - 1 do
          let via = nbrs.(s) in
          if row.(s) > 0.0 && via <> dst then
            t_next.(via) <- t_next.(via) +. (t_cur.(k) *. row.(s))
        done
      end
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
      if t_cur.(node) > 0.0 then begin
        let row = Params.row params ~node ~dst and base = Params.first_slot layout node in
        for s = 0 to Array.length row - 1 do
          if row.(s) > 0.0 then
            link_flows.(base + s) <- link_flows.(base + s) +. (t_cur.(node) *. row.(s))
        done
      end
    end
  done

let compute ?(iterative_fallback = false) params traffic =
  let topo = Params.topology params in
  let n = Graph.node_count topo in
  if Traffic.node_count traffic <> n then
    invalid_arg "Flows.compute: traffic/topology node count mismatch";
  let layout = Params.layout params in
  let rates = Traffic.rates traffic in
  let node_flows = Array.make_matrix n n 0.0 in
  let link_flows = Array.make (Params.slot_count layout) 0.0 in
  let order = Array.make n 0 and indegree = Array.make n 0 in
  (* The order is complete before any flow is written, so a cyclic
     destination reaches the fallback with its column untouched. *)
  let solve dst =
    match topological_order_into params ~dst ~order ~indegree with
    | () -> solve_destination_exact params rates node_flows link_flows ~order ~dst
    | exception Cyclic_routing _ when iterative_fallback ->
      solve_destination_iterative params rates node_flows link_flows ~dst
  in
  List.iter solve (Traffic.destinations traffic);
  { node_flows; link_flows; layout }

let link_flow t ~src ~dst =
  match Params.slot t.layout ~src ~dst with -1 -> 0.0 | e -> t.link_flows.(e)

let max_utilization params t ~packet_size =
  let layout = Params.layout params in
  let acc = ref 0.0 in
  for e = 0 to Params.slot_count layout - 1 do
    let l = Params.link_of_slot layout e in
    let cap_pkts = l.capacity /. packet_size in
    acc := Float.max !acc (t.link_flows.(e) /. cap_pkts)
  done;
  !acc
