module Graph = Mdr_topology.Graph
module Fluid = Mdr_fluid
module Params = Fluid.Params
module Flows = Fluid.Flows
module Traffic = Fluid.Traffic
module Evaluate = Fluid.Evaluate
module Dijkstra = Mdr_routing.Dijkstra

type scheme = Heuristics.scheme = Mp | Sp | Ecmp

type config = {
  scheme : scheme;
  rounds : int;
  ts_per_tl : int;
  damping : float;
}

let default_config = { scheme = Mp; rounds = 30; ts_per_tl = 5; damping = 1.0 }

type result = {
  params : Params.t;
  flows : Flows.t;
  total_cost : float;
  avg_delay : float;
  delay_history : float list;
}

(* One long-term (T_l) update: recompute distances and successor sets
   from the long-term link costs ([long_cost], by link slot), choose
   the successors in use with {!Heuristics.choose} and re-seed the
   fractions only for pairs whose set's members changed. The paper
   runs IH "when S is computed for the first time or recomputed again
   due to long-term route changes"; untouched pairs keep the
   distribution AH has been refining. Fills [distances.(dst)] with the
   per-destination distance tables that the following T_s steps treat
   as fixed long-term information. [ws] is scratch. *)
let long_term_update ws params traffic ~scheme ~long_cost ~distances =
  let topo = Params.topology params in
  let layout = Params.layout params in
  let n = Graph.node_count topo in
  let cost (l : Graph.link) = long_cost.(Params.slot layout ~src:l.src ~dst:l.dst) in
  List.iter
    (fun dst ->
      let dist = Dijkstra.distances_to ~ws topo ~dst ~cost in
      distances.(dst) <- dist;
      for node = 0 to n - 1 do
        if node <> dst then begin
          let through k = dist.(k) +. long_cost.(Params.slot layout ~src:node ~dst:k) in
          (* Candidates: the neighbors closer to [dst] (Eq. 14). *)
          let closer =
            List.filter (fun k -> dist.(k) < dist.(node)) (Graph.neighbors topo node)
          in
          let set = Heuristics.choose scheme ~through closer in
          (* Both lists are in neighbor-slot order. *)
          if not (List.equal Int.equal set (Params.successors params ~node ~dst)) then
            match Heuristics.seed scheme ~through set with
            | [] -> Params.clear params ~node ~dst
            | entries -> Params.set_fractions params ~node ~dst entries
        end
      done)
    (Traffic.destinations traffic)

(* One short-term (T_s) update: AH on every routed pair, in place on
   its φ row ([ah] is scratch). Neighbor distances are the stored
   long-term values; only the adjacent link cost is re-measured
   ([costs], by link slot) — the split of time scales at the heart of
   the framework. *)
let short_term_update ah params traffic ~damping ~distances ~costs =
  let n = Graph.node_count (Params.topology params) in
  List.iter
    (fun dst ->
      let dist = distances.(dst) in
      if Array.length dist > 0 then
        for node = 0 to n - 1 do
          if node <> dst then Heuristics.adjust_row ~damping ah params ~node ~dst ~dist ~costs
        done)
    (Traffic.destinations traffic)

(* Long-term link costs are the *average* of the short-term marginal
   samples observed during the previous T_l interval — the paper's
   "link costs measured over longer intervals T_l" — which damps the
   route flapping an instantaneous cost snapshot would cause. Sums are
   kept by link slot. *)
module Cost_window = struct
  type t = {
    sums : float array;
    mutable samples : int;
  }

  let create ~slots = { sums = Array.make slots 0.0; samples = 0 }

  let record t costs =
    t.samples <- t.samples + 1;
    Array.iteri (fun e c -> t.sums.(e) <- t.sums.(e) +. c) costs

  let mean t =
    let samples = float_of_int (max 1 t.samples) in
    Array.map (fun sum -> sum /. samples) t.sums

  let reset t =
    Array.fill t.sums 0 (Array.length t.sums) 0.0;
    t.samples <- 0
end

let run ?(config = default_config) model topo traffic =
  if config.rounds < 1 then invalid_arg "Controller.run: rounds < 1";
  if config.ts_per_tl < 1 then invalid_arg "Controller.run: ts_per_tl < 1";
  let params = Params.create topo in
  let n = Graph.node_count topo in
  let slots = Params.slot_count (Params.layout params) in
  let history = ref [] in
  let flows = ref (Flows.compute params traffic) in
  (* Marginal link costs at the current [flows], by link slot. *)
  let costs = Evaluate.link_costs model !flows in
  let window = Cost_window.create ~slots in
  let distances = Array.make n [||] in
  let ws = Dijkstra.workspace () in
  let ah = Heuristics.workspace params in
  let record () =
    history := Evaluate.average_delay model !flows traffic :: !history;
    ignore (Evaluate.link_costs ~into:costs model !flows);
    Cost_window.record window costs
  in
  for round = 1 to config.rounds do
    let long_cost = if round = 1 then costs else Cost_window.mean window in
    Cost_window.reset window;
    long_term_update ws params traffic ~scheme:config.scheme ~long_cost ~distances;
    flows := Flows.compute params traffic;
    record ();
    for _step = 2 to config.ts_per_tl do
      if Heuristics.uses_ah config.scheme then begin
        short_term_update ah params traffic ~damping:config.damping ~distances ~costs;
        flows := Flows.compute params traffic;
        record ()
      end
      else begin
        (* Without AH φ stays as the round began, and so do the flows,
           the delay and the costs. *)
        history := List.hd !history :: !history;
        Cost_window.record window costs
      end
    done
  done;
  let delay_history = List.rev !history in
  (* Steady-state figure: time-average over the second half of the run,
     the analogue of the paper's measured per-flow averages. *)
  let steady =
    let k = List.length delay_history in
    let tail = List.filteri (fun i _ -> i >= k / 2) delay_history in
    Mdr_util.Stats.mean_of_list tail
  in
  {
    params;
    flows = !flows;
    total_cost = Evaluate.total_cost model !flows;
    avg_delay = steady;
    delay_history;
  }
