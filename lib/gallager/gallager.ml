module Graph = Mdr_topology.Graph
module Fluid = Mdr_fluid
module Params = Fluid.Params
module Flows = Fluid.Flows
module Traffic = Fluid.Traffic
module Evaluate = Fluid.Evaluate
module Delay = Fluid.Delay
module Feasibility = Fluid.Feasibility

type degradation = {
  admitted_fraction : float;
  shed : (Traffic.flow * float) list;
  per_destination : (int * float) list;
  reason : [ `Min_cut | `No_convergence ];
}

type status = Feasible | Degraded of degradation

type result = {
  params : Params.t;
  flows : Flows.t;
  total_cost : float;
  avg_delay : float;
  iterations : int;
  history : float list;
  converged : bool;
  status : status;
  admitted : Traffic.t;
}

let spf_params model topo =
  let params = Params.create topo in
  let layout = Params.layout params in
  let n = Graph.node_count topo in
  let zero =
    Array.init (Params.slot_count layout) (fun e ->
        let l = Params.link_of_slot layout e in
        Delay.marginal (Evaluate.delay_of_link model ~src:l.src ~dst:l.dst) 0.0)
  in
  let zero_flow_cost (l : Graph.link) = zero.(Params.slot layout ~src:l.src ~dst:l.dst) in
  let ws = Mdr_routing.Dijkstra.workspace () in
  for dst = 0 to n - 1 do
    let dist = Mdr_routing.Dijkstra.distances_to ~ws topo ~dst ~cost:zero_flow_cost in
    for node = 0 to n - 1 do
      if node <> dst then begin
        (* Best next hop: the neighbor minimising link cost + its
           distance, ties to the lower slot (deterministic trees). *)
        let nbrs = Params.neighbor_array params node
        and base = Params.first_slot layout node in
        let best = ref (-1) and best_d = ref infinity in
        for s = 0 to Array.length nbrs - 1 do
          let d = zero.(base + s) +. dist.(nbrs.(s)) in
          if not (!best >= 0 && !best_d <= d) && Float.is_finite d then begin
            best := nbrs.(s);
            best_d := d
          end
        done;
        if !best >= 0 then Params.set_single params ~node ~dst ~via:!best
      end
    done
  done;
  params

(* Scratch for one solve: Kahn's order, the marginal distances and
   improper marks of the destination in hand, every link's marginal
   cost at the current flows, and per-neighbor-slot values of the
   router being updated. *)
type workspace = {
  order : int array;
  indegree : int array;
  delta : float array;
  improper : bool array;
  costs : float array;
  through : float array;
  next : float array;
}

let workspace params =
  let n = Graph.node_count (Params.topology params) in
  let layout = Params.layout params in
  let degree = ref 0 in
  for node = 0 to n - 1 do
    degree := max !degree (Array.length (Params.neighbor_array params node))
  done;
  {
    order = Array.make n 0;
    indegree = Array.make n 0;
    delta = Array.make n infinity;
    improper = Array.make n false;
    costs = Array.make (Params.slot_count layout) 0.0;
    through = Array.make !degree 0.0;
    next = Array.make !degree 0.0;
  }

(* Improper nodes for a destination: a node is improper when one of its
   routed links goes uphill in marginal distance, or when some
   successor is improper. Blocking flow additions toward improper
   neighbors is Gallager's device for keeping successor graphs acyclic
   while delta evolves. Successors resolve before the nodes that use
   them: the walk runs in reverse topological order. *)
let mark_improper ws params ~dst ~n =
  let delta = ws.delta and improper = ws.improper in
  Array.fill improper 0 n false;
  for idx = n - 1 downto 0 do
    let node = ws.order.(idx) in
    if node <> dst then begin
      let row = Params.row params ~node ~dst and nbrs = Params.neighbor_array params node in
      for s = 0 to Array.length row - 1 do
        let k = nbrs.(s) in
        if row.(s) > 0.0 && (delta.(k) >= delta.(node) || improper.(k)) then
          improper.(node) <- true
      done
    end
  done

(* D'' of the link in slot [e] at [flows]. *)
let second model (flows : Flows.t) e =
  Delay.second (Evaluate.delay_of_slot model e) flows.link_flows.(e)

(* [ws.costs] must hold the marginal cost of every link at [flows]. *)
let update_destination ~second_order ws model params (flows : Flows.t) ~eta ~dst =
  let n = Graph.node_count (Params.topology params) in
  let layout = Params.layout params in
  (try Flows.topological_order_into params ~dst ~order:ws.order ~indegree:ws.indegree
   with Flows.Cyclic_routing _ -> invalid_arg "Evaluate: successor graph has a cycle");
  Evaluate.downstream_into params ~dst ~order:ws.order ~link_values:ws.costs ws.delta;
  mark_improper ws params ~dst ~n;
  let delta = ws.delta and improper = ws.improper in
  let through = ws.through and next = ws.next in
  let max_change = ref 0.0 in
  for node = 0 to n - 1 do
    let nbrs = Params.neighbor_array params node in
    if node <> dst && Array.length nbrs > 0 then begin
      let deg = Array.length nbrs and base = Params.first_slot layout node in
      let row = Params.row params ~node ~dst in
      (* The best unblocked neighbor by l_ik + delta_k, ties to the
         lower slot; flow may be added only toward it. *)
      let best = ref (-1) and dmin = ref infinity in
      for s = 0 to deg - 1 do
        let k = nbrs.(s) in
        let d = ws.costs.(base + s) +. delta.(k) in
        through.(s) <- d;
        let blocked = Float.equal row.(s) 0.0 && (delta.(k) >= delta.(node) || improper.(k)) in
        if (not blocked) && (not (!best >= 0 && !dmin <= d)) && Float.is_finite d then begin
          best := s;
          dmin := d
        end
      done;
      if !best >= 0 then begin
        let kmin = !best and dmin = !dmin in
        let t_node = flows.node_flows.(node).(dst) in
        (* Second-order scaling (Bertsekas-Gallager): normalise the step
           by the curvature of the two links traded against each other,
           making eta dimensionless and far less input-dependent.
           Newton-style: d2(D_T)/d(phi)^2 ~ t^2 (D''_k + D''_kmin); the
           gradient is t a_k, so the step is a_k / (t (D''_k +
           D''_kmin)). *)
        let moved = ref 0.0 in
        for s = 0 to deg - 1 do
          let p = row.(s) in
          next.(s) <- 0.0;
          if s <> kmin && not (p <= 0.0) then begin
            let reduction =
              if t_node > 0.0 then begin
                let scale =
                  if second_order then
                    Float.max 1e-12
                      (second model flows (base + s) +. second model flows (base + kmin))
                  else 1.0
                in
                Float.min p (eta *. (through.(s) -. dmin) /. (t_node *. scale))
              end
              else p (* no traffic: collapse onto the best hop *)
            in
            moved := !moved +. reduction;
            let remaining = p -. reduction in
            if remaining > 1e-12 then next.(s) <- remaining
          end
        done;
        next.(kmin) <- row.(kmin) +. !moved;
        (* Guard against drift before writing back: the sum runs over
           the best hop first, then the kept slots in order. *)
        let total = ref (0.0 +. next.(kmin)) in
        for s = 0 to deg - 1 do
          if s <> kmin && next.(s) > 0.0 then total := !total +. next.(s)
        done;
        for s = 0 to deg - 1 do
          if s = kmin || next.(s) > 0.0 then next.(s) <- next.(s) /. !total
        done;
        max_change := Float.max !max_change !moved;
        Params.set_row params ~node ~dst ~lead:kmin next
      end
    end
  done;
  !max_change

(* The gradient-projection loop itself, run on an (already admitted)
   traffic matrix; feasibility handling lives in [solve]. *)
let solve_admitted ~eta ~adaptive ~second_order ~max_iters ~tol ?init model topo
    traffic =
  if eta <= 0.0 then invalid_arg "Gallager.solve: eta <= 0";
  let params =
    match init with Some p -> Params.copy p | None -> spf_params model topo
  in
  let n = Graph.node_count topo in
  let destinations = List.filter (fun d -> d < n) (Traffic.destinations traffic) in
  let tol_move = Float.max tol 1e-8 in
  let cost_of p =
    let flows = Flows.compute ~iterative_fallback:true p traffic in
    (flows, Evaluate.total_cost model flows)
  in
  (* One workspace serves every destination of every iteration. *)
  let ws = workspace params in
  let apply p flows step =
    ignore (Evaluate.link_costs ~into:ws.costs model flows);
    List.fold_left
      (fun acc dst ->
        Float.max acc (update_destination ~second_order ws model p flows ~eta:step ~dst))
      0.0 destinations
  in
  let eta_floor = eta *. 1e-12 in
  let history = ref [] in
  let cur_eta = ref eta in
  let finished = ref false in
  let iterations = ref 0 in
  let converged = ref false in
  let saved = Params.copy params in
  (* The flows and cost of the last accepted line-search step, which
     are the next iteration's starting point: every iteration either
     accepts a step or ends the loop. *)
  let carried = ref None in
  while not !finished && !iterations < max_iters do
    incr iterations;
    let flows, cost =
      match !carried with Some start -> start | None -> cost_of params
    in
    history := cost :: !history;
    if adaptive then begin
      (* Backtracking line search: keep halving the step until the
         update strictly descends, restoring the parameters between
         attempts. The objective is convex, so a small enough step
         always descends unless we are at the optimum. [apply] writes
         only the destinations' columns, so only those are saved. *)
      Params.assign saved ~from_:params ~destinations;
      let rec attempt step =
        let moved = apply params flows step in
        if moved < tol_move then begin
          converged := true;
          finished := true
        end
        else begin
          let new_flows, new_cost = cost_of params in
          if new_cost < cost then begin
            (* Successful step: let the step size recover. *)
            cur_eta := Float.min eta (step *. 1.5);
            carried := Some (new_flows, new_cost)
          end
          else if step <= eta_floor then begin
            converged := true;
            finished := true
          end
          else begin
            (* Restore and retry with half the step. *)
            Params.assign params ~from_:saved ~destinations;
            attempt (step /. 2.0)
          end
        end
      in
      attempt !cur_eta
    end
    else begin
      (* Pure Gallager: fixed global step, no safeguards (ABL-ETA). *)
      let moved = apply params flows eta in
      if moved < tol_move then begin
        converged := true;
        finished := true
      end
    end
  done;
  let flows = Flows.compute ~iterative_fallback:true params traffic in
  (params, flows, !iterations, List.rev !history, !converged)

let finish model (params, flows, iterations, history, converged) ~status ~admitted =
  {
    params;
    flows;
    total_cost = Evaluate.total_cost model flows;
    avg_delay = Evaluate.average_delay model flows admitted;
    iterations;
    history;
    converged;
    status;
    admitted;
  }

let solve ?(eta = 1.0e4) ?(adaptive = true) ?(second_order = false)
    ?(max_iters = 2000) ?(tol = 1e-9) ?(degrade = true) ?init model topo traffic =
  let run traffic =
    solve_admitted ~eta ~adaptive ~second_order ~max_iters ~tol ?init model topo
      traffic
  in
  if not degrade then finish model (run traffic) ~status:Feasible ~admitted:traffic
  else begin
    let packet_size = Evaluate.packet_size model in
    let report = Feasibility.report topo ~packet_size traffic in
    (* Shrink only on clear divergence: the run neither converged nor
       stayed within capacity. A feasible run that merely hit
       [max_iters] at utilisation <= 1 is not degraded. *)
    let diverged ((params, flows, _, _, converged) : Params.t * Flows.t * _ * _ * bool)
        =
      (not converged) && Flows.max_utilization params flows ~packet_size > 1.0
    in
    let rec attempt alpha reason tries =
      let admitted =
        if alpha >= 1.0 then traffic else Traffic.scale traffic alpha
      in
      let r = run admitted in
      if diverged r && tries > 0 && alpha > 1e-6 then
        attempt (alpha *. 0.8) `No_convergence (tries - 1)
      else begin
        let status =
          if alpha >= 1.0 then Feasible
          else
            Degraded
              {
                admitted_fraction = alpha;
                shed =
                  List.map
                    (fun (f : Traffic.flow) -> (f, 1.0 -. alpha))
                    (Traffic.flows traffic);
                per_destination = report.Feasibility.per_destination;
                reason;
              }
        in
        finish model r ~status ~admitted
      end
    in
    if Feasibility.feasible report then attempt 1.0 `Min_cut 6
    else attempt report.Feasibility.fraction `Min_cut 6
  end

let check_optimality model params flows traffic ~tolerance =
  let topo = Params.topology params in
  let n = Graph.node_count topo in
  let ok = ref true in
  let delta_buf = Array.make n infinity in
  let check_destination dst =
    let delta = Evaluate.marginal_distances ~into:delta_buf model params flows ~dst in
    for node = 0 to n - 1 do
      if node <> dst && flows.Flows.node_flows.(node).(dst) > 1e-9 then begin
        let through k =
          Evaluate.link_cost model flows ~src:node ~dst:k +. delta.(k)
        in
        let succs = Params.successors params ~node ~dst in
        let values = List.map through succs in
        match values with
        | [] -> ok := false
        | v0 :: rest ->
          let lo = List.fold_left Float.min v0 rest in
          let hi = List.fold_left Float.max v0 rest in
          (* Successor marginals must agree (Eq. 11)... *)
          if hi -. lo > tolerance *. Float.max 1.0 lo then ok := false;
          (* ...and no outside neighbor may beat them (Eq. 12). *)
          List.iter
            (fun k ->
              if not (List.mem k succs) then
                let v = through k in
                if Float.is_finite v && v < lo -. (tolerance *. Float.max 1.0 lo)
                then ok := false)
            (Array.to_list (Params.neighbor_array params node))
      end
    done
  in
  List.iter check_destination (Traffic.destinations traffic);
  !ok
