module Graph = Mdr_topology.Graph

type model = {
  topo : Graph.t;
  packet_size : float;
  row : int array;  (* row.(i) .. row.(i+1)-1: router i's link slots *)
  links : Graph.link array;  (* by link slot *)
  delays : Delay.t array;  (* by link slot *)
  insertion : int array option Atomic.t;  (* link slots in Graph.links order *)
}

(* Slots follow Graph.out_csr: by source, in insertion order within a
   source. The insertion order is worked out on first use, so building
   a model costs no more than the delay models themselves. *)
let model ?rho_max topo ~packet_size =
  let n = Graph.node_count topo and count = Graph.link_count topo in
  let row = Array.make (n + 1) 0 in
  let links = Array.make count { Graph.src = 0; dst = 0; capacity = 1.0; prop_delay = 0.0 } in
  let delays = Array.make count (Delay.create ~capacity:1.0 ~prop_delay:0.0 ()) in
  let e = ref 0 in
  for src = 0 to n - 1 do
    List.iter
      (fun (l : Graph.link) ->
        links.(!e) <- l;
        delays.(!e) <- Delay.of_link ?rho_max ~packet_size l;
        incr e)
      (Graph.out_links topo src);
    row.(src + 1) <- !e
  done;
  { topo; packet_size; row; links; delays; insertion = Atomic.make None }

let insertion m =
  match Atomic.get m.insertion with
  | Some order -> order
  | None ->
    let next = Array.sub m.row 0 (Graph.node_count m.topo) in
    let order = Array.make (Array.length m.links) 0 in
    List.iteri
      (fun i (l : Graph.link) ->
        order.(i) <- next.(l.src);
        next.(l.src) <- next.(l.src) + 1)
      (Graph.links m.topo);
    (* A race only builds the same array twice. *)
    Atomic.set m.insertion (Some order);
    order

let packet_size m = m.packet_size

let delay_of_link m ~src ~dst =
  let n = Graph.node_count m.topo in
  let found = ref (-1) in
  if src >= 0 && src < n && dst >= 0 && dst < n then
    for e = m.row.(src) to m.row.(src + 1) - 1 do
      if m.links.(e).dst = dst then found := e
    done;
  if !found < 0 then
    invalid_arg
      (Printf.sprintf "Evaluate.delay_of_link: no link %s -> %s"
         (Graph.name m.topo src) (Graph.name m.topo dst));
  m.delays.(!found)

let delay_of_slot m e = m.delays.(e)

(* Flows and the model index links by the same slots when both were
   built over the same link set; links are only ever added, so equal
   counts mean equal sets. *)
let link_flows_of m (flows : Flows.t) =
  if Array.length flows.link_flows <> Array.length m.delays then
    invalid_arg "Evaluate: flows and model cover different link sets";
  flows.link_flows

let total_cost m flows =
  let lf = link_flows_of m flows in
  let acc = ref 0.0 in
  let order = insertion m in
  for i = 0 to Array.length order - 1 do
    let e = order.(i) in
    let f = lf.(e) in
    if not (f <= 0.0) then acc := !acc +. Delay.cost m.delays.(e) f
  done;
  !acc

let average_delay m flows traffic =
  let total = Traffic.total_rate traffic in
  if total <= 0.0 then 0.0 else total_cost m flows /. total

let link_cost m flows ~src ~dst =
  let f = Flows.link_flow flows ~src ~dst in
  Delay.marginal (delay_of_link m ~src ~dst) f

let saturated_links m flows =
  let lf = link_flows_of m flows in
  Array.fold_right
    (fun e acc ->
      if Delay.saturated m.delays.(e) lf.(e) then
        let l = m.links.(e) in
        (l.src, l.dst) :: acc
      else acc)
    (insertion m) []

let costs_finite m flows =
  let lf = link_flows_of m flows in
  Array.for_all
    (fun e ->
      let f = lf.(e) and d = m.delays.(e) in
      Float.is_finite f && f >= 0.0
      && Float.is_finite (Delay.cost d f)
      && Float.is_finite (Delay.marginal d f)
      && Delay.cost d f >= 0.0
      && Delay.marginal d f > 0.0)
    (insertion m)

let link_costs ?into m flows =
  let lf = link_flows_of m flows in
  let costs =
    match into with
    | None -> Array.make (Array.length lf) 0.0
    | Some a ->
      if Array.length a < Array.length lf then
        invalid_arg "Evaluate: into buffer shorter than link count";
      a
  in
  for e = 0 to Array.length lf - 1 do
    costs.(e) <- Delay.marginal m.delays.(e) lf.(e)
  done;
  costs

(* Shared downstream recursion for both expected delays (per-packet
   sojourn) and marginal distances (marginal link cost): values are
   computed in reverse topological order of SG_dst, so each router's
   successors are resolved before the router itself. *)
let downstream_into params ~dst ~order ~link_values values =
  let n = Graph.node_count (Params.topology params) in
  let layout = Params.layout params in
  Array.fill values 0 n infinity;
  values.(dst) <- 0.0;
  for idx = n - 1 downto 0 do
    let node = order.(idx) in
    if node <> dst then begin
      let row = Params.row params ~node ~dst
      and nbrs = Params.neighbor_array params node
      and base = Params.first_slot layout node in
      let routed = ref false and total = ref 0.0 in
      for s = 0 to Array.length row - 1 do
        let frac = row.(s) in
        if frac > 0.0 then begin
          routed := true;
          total := !total +. (frac *. (link_values.(base + s) +. values.(nbrs.(s))))
        end
      done;
      if !routed then values.(node) <- !total
    end
  done

let downstream_values ?into params ~dst ~link_values =
  let n = Graph.node_count (Params.topology params) in
  let values =
    match into with
    | None -> Array.make n infinity
    | Some a ->
      if Array.length a < n then
        invalid_arg "Evaluate: into buffer shorter than node count";
      a
  in
  let order = Array.make n 0 in
  (try Flows.topological_order_into params ~dst ~order ~indegree:(Array.make n 0)
   with Flows.Cyclic_routing _ -> invalid_arg "Evaluate: successor graph has a cycle");
  downstream_into params ~dst ~order ~link_values:(Lazy.force link_values) values;
  values

let sojourns m flows =
  let lf = link_flows_of m flows in
  Array.mapi (fun e f -> Delay.sojourn m.delays.(e) f) lf

let expected_delay m params flows ~src ~dst =
  (downstream_values params ~dst ~link_values:(lazy (sojourns m flows))).(src)

let per_flow_delays m params flows traffic =
  let n = Graph.node_count m.topo in
  let link_values = lazy (sojourns m flows) in
  let by_dst = Array.make n [||] in
  let array_for dst =
    if Array.length by_dst.(dst) = 0 then
      by_dst.(dst) <- downstream_values params ~dst ~link_values;
    by_dst.(dst)
  in
  List.map
    (fun (flow : Traffic.flow) -> (flow, (array_for flow.dst).(flow.src)))
    (Traffic.flows traffic)

let marginal_distances ?into m params flows ~dst =
  downstream_values ?into params ~dst ~link_values:(lazy (link_costs m flows))
