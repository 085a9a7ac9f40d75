module Graph = Mdr_topology.Graph

(* Keyed by [src * n + dst], hashed as the int itself; nothing iterates
   the table. *)
module Key_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

type model = {
  topo : Graph.t;
  packet_size : float;
  delays : Delay.t Key_tbl.t;
}

let model ?rho_max topo ~packet_size =
  let n = Graph.node_count topo in
  let delays = Key_tbl.create (Graph.link_count topo) in
  Graph.fold_links topo ~init:() ~f:(fun () l ->
      Key_tbl.replace delays ((l.src * n) + l.dst) (Delay.of_link ?rho_max ~packet_size l));
  { topo; packet_size; delays }

let packet_size m = m.packet_size

let delay_of_link m ~src ~dst =
  let n = Graph.node_count m.topo in
  try
    if src < 0 || src >= n || dst < 0 || dst >= n then raise Not_found;
    Key_tbl.find m.delays ((src * n) + dst)
  with Not_found ->
    invalid_arg
      (Printf.sprintf "Evaluate.delay_of_link: no link %s -> %s"
         (Graph.name m.topo src) (Graph.name m.topo dst))

let total_cost m flows =
  Graph.fold_links m.topo ~init:0.0 ~f:(fun acc l ->
      let f = Flows.link_flow flows ~src:l.src ~dst:l.dst in
      if f <= 0.0 then acc
      else acc +. Delay.cost (delay_of_link m ~src:l.src ~dst:l.dst) f)

let average_delay m flows traffic =
  let total = Traffic.total_rate traffic in
  if total <= 0.0 then 0.0 else total_cost m flows /. total

let link_cost m flows ~src ~dst =
  let f = Flows.link_flow flows ~src ~dst in
  Delay.marginal (delay_of_link m ~src ~dst) f

let saturated_links m flows =
  List.rev
    (Graph.fold_links m.topo ~init:[] ~f:(fun acc l ->
         let f = Flows.link_flow flows ~src:l.src ~dst:l.dst in
         if Delay.saturated (delay_of_link m ~src:l.src ~dst:l.dst) f then
           (l.src, l.dst) :: acc
         else acc))

let costs_finite m flows =
  Graph.fold_links m.topo ~init:true ~f:(fun ok l ->
      let f = Flows.link_flow flows ~src:l.src ~dst:l.dst in
      let d = delay_of_link m ~src:l.src ~dst:l.dst in
      ok
      && Float.is_finite f && f >= 0.0
      && Float.is_finite (Delay.cost d f)
      && Float.is_finite (Delay.marginal d f)
      && Delay.cost d f >= 0.0
      && Delay.marginal d f > 0.0)

(* Shared downstream recursion for both expected delays (per-packet
   sojourn) and marginal distances (marginal link cost): values are
   computed in reverse topological order of SG_dst, so each router's
   successors are resolved before the router itself. *)
let downstream_values ?into m params ~dst ~link_value =
  let n = Graph.node_count m.topo in
  let values =
    match into with
    | None -> Array.make n infinity
    | Some a ->
      if Array.length a < n then
        invalid_arg "Evaluate: into buffer shorter than node count";
      Array.fill a 0 n infinity;
      a
  in
  values.(dst) <- 0.0;
  let order =
    try Flows.topological_order params ~dst
    with Flows.Cyclic_routing _ ->
      invalid_arg "Evaluate: successor graph has a cycle"
  in
  let resolve node =
    if node <> dst then begin
      match Params.fractions params ~node ~dst with
      | [] -> ()
      | fracs ->
        let total =
          List.fold_left
            (fun acc (via, frac) ->
              acc +. (frac *. (link_value ~src:node ~dst:via +. values.(via))))
            0.0 fracs
        in
        values.(node) <- total
    end
  in
  (* Topological order lists predecessors first; successors last. *)
  List.iter resolve (List.rev order);
  values

let sojourn_value m flows ~src ~dst =
  let f = Flows.link_flow flows ~src ~dst in
  Delay.sojourn (delay_of_link m ~src ~dst) f

let expected_delay_array m params flows ~dst =
  downstream_values m params ~dst ~link_value:(sojourn_value m flows)

let expected_delay m params flows ~src ~dst =
  (expected_delay_array m params flows ~dst).(src)

let per_flow_delays m params flows traffic =
  let cache = Hashtbl.create 8 in
  let array_for dst =
    match Hashtbl.find_opt cache dst with
    | Some a -> a
    | None ->
      let a = expected_delay_array m params flows ~dst in
      Hashtbl.replace cache dst a;
      a
  in
  List.map
    (fun (flow : Traffic.flow) -> (flow, (array_for flow.dst).(flow.src)))
    (Traffic.flows traffic)

let marginal_distances ?into m params flows ~dst =
  let link_value ~src ~dst =
    let f = Flows.link_flow flows ~src ~dst in
    Delay.marginal (delay_of_link m ~src ~dst) f
  in
  downstream_values ?into m params ~dst ~link_value
