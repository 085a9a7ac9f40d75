(* Tests for the fluid model: M/M/1 delay curves and their convex
   extension, traffic matrices, routing-parameter invariants
   (Property 1), flow conservation, and delay evaluation. *)

module Graph = Mdr_topology.Graph
module Delay = Mdr_fluid.Delay
module Traffic = Mdr_fluid.Traffic
module Params = Mdr_fluid.Params
module Flows = Mdr_fluid.Flows
module Evaluate = Mdr_fluid.Evaluate

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let dm = Delay.create ~capacity:1000.0 ~prop_delay:0.001 ()

let test_delay_zero_flow () =
  check_float "cost 0" 0.0 (Delay.cost dm 0.0);
  check_float "marginal 0" ((1.0 /. 1000.0) +. 0.001) (Delay.marginal dm 0.0);
  check_float "sojourn 0" 0.002 (Delay.sojourn dm 0.0)

let test_delay_mm1_formula () =
  (* At f = 500 on capacity 1000: D = 500/500 + 0.001*500 = 1.5. *)
  check_float "cost" 1.5 (Delay.cost dm 500.0);
  (* D' = C/(C-f)^2 + tau = 1000/250000 + 0.001 = 0.005. *)
  check_float "marginal" 0.005 (Delay.marginal dm 500.0);
  (* sojourn = 1/(C-f) + tau = 0.003. *)
  check_float "sojourn" 0.003 (Delay.sojourn dm 500.0)

let test_delay_cost_sojourn_relation () =
  (* D(f) = f * sojourn(f) in the M/M/1 region. *)
  List.iter
    (fun f -> check_float "relation" (Delay.cost dm f) (f *. Delay.sojourn dm f))
    [ 1.0; 100.0; 500.0; 900.0 ]

let test_delay_finite_beyond_capacity () =
  check "finite past knee" true (Float.is_finite (Delay.cost dm 999.0));
  check "finite past capacity" true (Float.is_finite (Delay.cost dm 2000.0));
  check "marginal finite too" true (Float.is_finite (Delay.marginal dm 2000.0))

let test_delay_extension_continuity () =
  (* Cost and marginal are continuous at the knee (rho_max * C). *)
  let f0 = 0.99 *. 1000.0 in
  let eps = 1e-6 in
  check "cost continuous" true
    (Float.abs (Delay.cost dm (f0 +. eps) -. Delay.cost dm (f0 -. eps)) < 1e-3);
  check "marginal continuous" true
    (Float.abs (Delay.marginal dm (f0 +. eps) -. Delay.marginal dm (f0 -. eps)) < 1e-3)

let test_delay_invalid () =
  Alcotest.check_raises "negative flow" (Invalid_argument "Delay.cost: negative flow")
    (fun () -> ignore (Delay.cost dm (-1.0)));
  Alcotest.check_raises "capacity" (Invalid_argument "Delay.create: capacity <= 0")
    (fun () -> ignore (Delay.create ~capacity:0.0 ~prop_delay:0.0 ()))

let prop_delay_marginal_increasing =
  QCheck.Test.make ~name:"marginal delay is non-decreasing (convexity)" ~count:300
    QCheck.(pair (float_bound_exclusive 1500.0) (float_bound_exclusive 1500.0))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Delay.marginal dm lo <= Delay.marginal dm hi +. 1e-12)

let prop_delay_cost_convex =
  QCheck.Test.make ~name:"cost midpoint convexity" ~count:300
    QCheck.(pair (float_bound_exclusive 1500.0) (float_bound_exclusive 1500.0))
    (fun (a, b) ->
      let mid = (a +. b) /. 2.0 in
      Delay.cost dm mid <= ((Delay.cost dm a +. Delay.cost dm b) /. 2.0) +. 1e-9)

(* --- Traffic --------------------------------------------------------- *)

let test_traffic_accumulates () =
  let t = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 5.0 }; { src = 0; dst = 3; rate = 2.0 } ] in
  check_float "accumulated" 7.0 (Traffic.rate t ~src:0 ~dst:3);
  check_float "total" 7.0 (Traffic.total_rate t);
  check "destinations" true (Traffic.destinations t = [ 3 ])

let test_traffic_validation () =
  Alcotest.check_raises "self flow" (Invalid_argument "Traffic: self-flow") (fun () ->
      ignore (Traffic.of_flows ~n:2 [ { src = 1; dst = 1; rate = 1.0 } ]));
  Alcotest.check_raises "negative" (Invalid_argument "Traffic: negative rate")
    (fun () -> ignore (Traffic.of_flows ~n:2 [ { src = 0; dst = 1; rate = -1.0 } ]))

let test_traffic_scale () =
  let t = Traffic.of_flows ~n:3 [ { src = 0; dst = 2; rate = 4.0 } ] in
  let t2 = Traffic.scale t 0.5 in
  check_float "scaled" 2.0 (Traffic.rate t2 ~src:0 ~dst:2);
  check_float "original untouched" 4.0 (Traffic.rate t ~src:0 ~dst:2)

let test_traffic_bits_conversion () =
  let t =
    Traffic.of_pairs_bits ~n:3 ~packet_size:1000.0
      ~rate_bits:(fun _ -> 1.0e6)
      [ (0, 2) ]
  in
  check_float "pkts per second" 1000.0 (Traffic.rate t ~src:0 ~dst:2)

(* --- Params ---------------------------------------------------------- *)

let diamond () =
  let g = Graph.create ~names:[| "s"; "a"; "b"; "d" |] in
  List.iter
    (fun (x, y) -> Graph.add_duplex g x y ~capacity:10.0e6 ~prop_delay:0.001)
    [ ("s", "a"); ("a", "d"); ("s", "b"); ("b", "d") ];
  g

let test_params_set_get () =
  let p = Params.create (diamond ()) in
  Params.set_fractions p ~node:0 ~dst:3 [ (1, 0.7); (2, 0.3) ];
  check_float "via a" 0.7 (Params.fraction p ~node:0 ~dst:3 ~via:1);
  check_float "via b" 0.3 (Params.fraction p ~node:0 ~dst:3 ~via:2);
  check "successors" true (Params.successors p ~node:0 ~dst:3 = [ 1; 2 ]);
  check "routed" true (Params.is_routed p ~node:0 ~dst:3);
  check "validate" true (Params.validate p = Ok ())

let test_params_rejects_bad_sum () =
  let p = Params.create (diamond ()) in
  check "raises" true
    (try
       Params.set_fractions p ~node:0 ~dst:3 [ (1, 0.5); (2, 0.3) ];
       false
     with Invalid_argument _ -> true)

let test_params_rejects_non_neighbor () =
  let p = Params.create (diamond ()) in
  check "raises" true
    (try
       Params.set_fractions p ~node:0 ~dst:3 [ (3, 1.0) ];
       false
     with Invalid_argument _ -> true)

let test_params_clear_and_copy () =
  let p = Params.create (diamond ()) in
  Params.set_single p ~node:0 ~dst:3 ~via:1;
  let q = Params.copy p in
  Params.clear p ~node:0 ~dst:3;
  check "original cleared" false (Params.is_routed p ~node:0 ~dst:3);
  check "copy kept" true (Params.is_routed q ~node:0 ~dst:3)

let test_params_assign () =
  let p = Params.create (diamond ()) in
  let q = Params.create (diamond ()) in
  Params.set_fractions p ~node:0 ~dst:3 [ (1, 0.6); (2, 0.4) ];
  Params.set_single p ~node:3 ~dst:1 ~via:1;
  Params.assign q ~from_:p ~destinations:[ 3 ];
  check_float "assigned" 0.6 (Params.fraction q ~node:0 ~dst:3 ~via:1);
  check "other destinations untouched" false (Params.is_routed q ~node:3 ~dst:1)

let test_params_acyclic_detects_loop () =
  let g = diamond () in
  let p = Params.create g in
  Params.set_single p ~node:0 ~dst:3 ~via:1;
  Params.set_single p ~node:1 ~dst:3 ~via:3;
  check "acyclic" true (Params.successor_graph_is_acyclic p ~dst:3);
  (* Create a 2-cycle s <-> a. *)
  Params.set_single p ~node:1 ~dst:3 ~via:0;
  Params.set_single p ~node:0 ~dst:3 ~via:1;
  check "cycle found" false (Params.successor_graph_is_acyclic p ~dst:3)

(* --- Flows ----------------------------------------------------------- *)

let diamond_split () =
  let g = diamond () in
  let p = Params.create g in
  Params.set_fractions p ~node:0 ~dst:3 [ (1, 0.5); (2, 0.5) ];
  Params.set_single p ~node:1 ~dst:3 ~via:3;
  Params.set_single p ~node:2 ~dst:3 ~via:3;
  (g, p)

let test_flows_split () =
  let _g, p = diamond_split () in
  let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 100.0 } ] in
  let fl = Flows.compute p traffic in
  check_float "s->a" 50.0 (Flows.link_flow fl ~src:0 ~dst:1);
  check_float "s->b" 50.0 (Flows.link_flow fl ~src:0 ~dst:2);
  check_float "a->d" 50.0 (Flows.link_flow fl ~src:1 ~dst:3);
  check_float "node flow at a" 50.0 fl.node_flows.(1).(3);
  check_float "node flow at s" 100.0 fl.node_flows.(0).(3)

let test_flows_conservation () =
  (* Flow into the destination equals total input. *)
  let _g, p = diamond_split () in
  let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 80.0 }; { src = 1; dst = 3; rate = 20.0 } ] in
  let fl = Flows.compute p traffic in
  let into_d = Flows.link_flow fl ~src:1 ~dst:3 +. Flows.link_flow fl ~src:2 ~dst:3 in
  check_float "conservation" 100.0 into_d

let test_flows_transit_traffic () =
  let _g, p = diamond_split () in
  let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 100.0 }; { src = 1; dst = 3; rate = 40.0 } ] in
  let fl = Flows.compute p traffic in
  (* a carries its own 40 plus 50 transit. *)
  check_float "a->d" 90.0 (Flows.link_flow fl ~src:1 ~dst:3)

let test_flows_cycle_raises () =
  let g = diamond () in
  let p = Params.create g in
  Params.set_single p ~node:0 ~dst:3 ~via:1;
  Params.set_single p ~node:1 ~dst:3 ~via:0;
  let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 1.0 } ] in
  check "raises" true
    (try
       ignore (Flows.compute p traffic);
       false
     with Flows.Cyclic_routing 3 -> true)

let test_flows_iterative_fallback_matches_exact () =
  let _g, p = diamond_split () in
  let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 100.0 } ] in
  let exact = Flows.compute p traffic in
  let iterative = Flows.compute ~iterative_fallback:true p traffic in
  check_float "same s->a" (Flows.link_flow exact ~src:0 ~dst:1)
    (Flows.link_flow iterative ~src:0 ~dst:1)

let test_topological_order () =
  let _g, p = diamond_split () in
  let order = Flows.topological_order p ~dst:3 in
  let pos x = Option.get (List.find_index (( = ) x) order) in
  check "s before a" true (pos 0 < pos 1);
  check "s before b" true (pos 0 < pos 2);
  check "a before d" true (pos 1 < pos 3)

let test_max_utilization () =
  let _g, p = diamond_split () in
  (* capacity is 10e6 bits/s; with 1000-bit packets that is 10000 pkt/s. *)
  let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 10000.0 } ] in
  let fl = Flows.compute p traffic in
  check_float "util" 0.5 (Flows.max_utilization p fl ~packet_size:1000.0)

(* --- Evaluate --------------------------------------------------------- *)

let test_total_cost_and_avg_delay () =
  let g, p = diamond_split () in
  let model = Evaluate.model g ~packet_size:1000.0 in
  (* capacity = 10000 pkt/s per link. *)
  let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 5000.0 } ] in
  let fl = Flows.compute p traffic in
  (* Each of 4 links carries 2500: D = 2500/7500 + 0.001*2500 = 2.8333...
     Total = 4 * that; avg = total / 5000. *)
  let expected_link = (2500.0 /. 7500.0) +. 2.5 in
  check_float "total cost" (4.0 *. expected_link) (Evaluate.total_cost model fl);
  check_float "avg delay" (4.0 *. expected_link /. 5000.0)
    (Evaluate.average_delay model fl traffic)

let test_per_flow_delay_chain () =
  (* For a single path the flow delay is the sum of link sojourns. *)
  let g = diamond () in
  let p = Params.create g in
  Params.set_single p ~node:0 ~dst:3 ~via:1;
  Params.set_single p ~node:1 ~dst:3 ~via:3;
  let model = Evaluate.model g ~packet_size:1000.0 in
  let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 1000.0 } ] in
  let fl = Flows.compute p traffic in
  let sojourn = (1.0 /. (10000.0 -. 1000.0)) +. 0.001 in
  match Evaluate.per_flow_delays model p fl traffic with
  | [ (_, d) ] -> check_float "two hops" (2.0 *. sojourn) d
  | _ -> Alcotest.fail "expected one flow"

let test_per_flow_delay_weighted () =
  (* With a 50/50 split over symmetric paths, delay equals either path. *)
  let g, p = diamond_split () in
  let model = Evaluate.model g ~packet_size:1000.0 in
  let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 1000.0 } ] in
  let fl = Flows.compute p traffic in
  let sojourn = (1.0 /. (10000.0 -. 500.0)) +. 0.001 in
  check_float "split delay" (2.0 *. sojourn)
    (Evaluate.expected_delay model p fl ~src:0 ~dst:3)

let test_marginal_distances_decrease_downstream () =
  let g, p = diamond_split () in
  let model = Evaluate.model g ~packet_size:1000.0 in
  let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 1000.0 } ] in
  let fl = Flows.compute p traffic in
  let delta = Evaluate.marginal_distances model p fl ~dst:3 in
  check_float "dst zero" 0.0 delta.(3);
  check "s > a" true (delta.(0) > delta.(1));
  check "a finite" true (Float.is_finite delta.(1))

let test_unrouted_delay_infinite () =
  let g = diamond () in
  let p = Params.create g in
  Params.set_single p ~node:1 ~dst:3 ~via:3;
  let model = Evaluate.model g ~packet_size:1000.0 in
  let traffic = Traffic.of_flows ~n:4 [ { src = 1; dst = 3; rate = 1.0 } ] in
  let fl = Flows.compute p traffic in
  check "s unrouted" true
    (Float.equal (Evaluate.expected_delay model p fl ~src:0 ~dst:3) infinity)

let prop_flows_conserve_random_splits =
  (* Random split at s over the diamond: input always reaches d. *)
  QCheck.Test.make ~name:"flow conservation under random splits" ~count:200
    QCheck.(pair (float_range 0.01 0.99) (float_range 1.0 5000.0))
    (fun (alpha, rate) ->
      let g = diamond () in
      let p = Params.create g in
      Params.set_fractions p ~node:0 ~dst:3 [ (1, alpha); (2, 1.0 -. alpha) ];
      Params.set_single p ~node:1 ~dst:3 ~via:3;
      Params.set_single p ~node:2 ~dst:3 ~via:3;
      let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate } ] in
      let fl = Flows.compute p traffic in
      let into_d =
        Flows.link_flow fl ~src:1 ~dst:3 +. Flows.link_flow fl ~src:2 ~dst:3
      in
      Float.abs (into_d -. rate) < 1e-6 *. rate)

let test_total_cost_equals_flow_weighted_delays () =
  (* Little's-law identity: D_T = sum over flows of rate * path delay
     (both sides count packet-seconds in the network per second). *)
  let g, p = diamond_split () in
  let model = Evaluate.model g ~packet_size:1000.0 in
  let traffic =
    Traffic.of_flows ~n:4
      [ { src = 0; dst = 3; rate = 3000.0 }; { src = 1; dst = 3; rate = 1000.0 } ]
  in
  let fl = Flows.compute p traffic in
  let lhs = Evaluate.total_cost model fl in
  let rhs =
    List.fold_left
      (fun acc ((f : Traffic.flow), d) -> acc +. (f.rate *. d))
      0.0
      (Evaluate.per_flow_delays model p fl traffic)
  in
  check_float "packet-seconds balance" lhs rhs

let prop_littles_law_random_splits =
  QCheck.Test.make ~name:"D_T = sum rate x delay under random splits" ~count:100
    QCheck.(pair (float_range 0.05 0.95) (float_range 100.0 8000.0))
    (fun (alpha, rate) ->
      let g = diamond () in
      let p = Params.create g in
      Params.set_fractions p ~node:0 ~dst:3 [ (1, alpha); (2, 1.0 -. alpha) ];
      Params.set_single p ~node:1 ~dst:3 ~via:3;
      Params.set_single p ~node:2 ~dst:3 ~via:3;
      let model = Evaluate.model g ~packet_size:1000.0 in
      let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate } ] in
      let fl = Flows.compute p traffic in
      let lhs = Evaluate.total_cost model fl in
      let rhs =
        List.fold_left
          (fun acc ((f : Traffic.flow), d) -> acc +. (f.rate *. d))
          0.0
          (Evaluate.per_flow_delays model p fl traffic)
      in
      Float.abs (lhs -. rhs) <= 1e-9 *. Float.max 1.0 lhs)

let test_flow_delay_lower_bounded_by_empty_network () =
  (* A flow can never beat its zero-flow shortest path. *)
  let g, p = diamond_split () in
  let model = Evaluate.model g ~packet_size:1000.0 in
  let traffic = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 6000.0 } ] in
  let fl = Flows.compute p traffic in
  let d = Evaluate.expected_delay model p fl ~src:0 ~dst:3 in
  let empty_sojourn = (1.0 /. 10000.0) +. 0.001 in
  check "bounded below" true (d >= 2.0 *. empty_sojourn)

(* --- Feasibility ------------------------------------------------------ *)

module Feasibility = Mdr_fluid.Feasibility

let check_approx = Alcotest.(check (float 1e-6))

let test_max_flow_uses_disjoint_paths () =
  (* Each diamond link is 10e6 b/s = 10000 pkt/s at 1000-bit packets;
     s->d has two disjoint paths, so the max flow must be 20000. *)
  let g = diamond () in
  let mf =
    Feasibility.max_flow g ~packet_size:1000.0 ~sources:[ (0, 1.0e9) ] ~dst:3
  in
  check_approx "two disjoint paths" 20000.0 mf

let test_feasibility_feasible_matrix () =
  let g = diamond () in
  (* 15000 pkt/s exceeds any single path (10000) but fits the 20000
     min cut: feasible only because the check is multipath-aware. *)
  let t = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 15000.0 } ] in
  let r = Feasibility.report g ~packet_size:1000.0 t in
  check "feasible" true (Feasibility.feasible r);
  check_approx "fraction capped at 1" 1.0 r.Feasibility.fraction;
  check "no bottleneck" true (r.Feasibility.bottleneck = None)

let test_feasibility_min_cut_fraction () =
  let g = diamond () in
  (* 40000 pkt/s offered into a 20000 pkt/s min cut: fraction 0.5 and
     the bottleneck destination is reported. *)
  let t = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 40000.0 } ] in
  let r = Feasibility.report g ~packet_size:1000.0 t in
  check "infeasible" false (Feasibility.feasible r);
  check_approx "fraction" 0.5 r.Feasibility.fraction;
  check "bottleneck" true (r.Feasibility.bottleneck = Some 3);
  check "per-destination entry" true
    (match r.Feasibility.per_destination with
    | [ (3, f) ] -> Float.abs (f -. 0.5) < 1e-6
    | _ -> false)

let test_feasibility_fraction_scales_inversely () =
  let g = diamond () in
  let t = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 40000.0 } ] in
  let f1 = (Feasibility.report g ~packet_size:1000.0 t).Feasibility.fraction in
  let f2 =
    (Feasibility.report g ~packet_size:1000.0 (Traffic.scale t 2.0))
      .Feasibility.fraction
  in
  check_approx "doubling the load halves the fraction" (f1 /. 2.0) f2

let test_feasibility_cap_headroom () =
  let g = diamond () in
  let t = Traffic.of_flows ~n:4 [ { src = 0; dst = 3; rate = 15000.0 } ] in
  (* At cap 0.5 only 10000 pkt/s of the cut is usable: 15000 offered
     admits 2/3. *)
  let r = Feasibility.report ~cap:0.5 g ~packet_size:1000.0 t in
  check_approx "capped fraction" (2.0 /. 3.0) r.Feasibility.fraction

let suite =
  [
    Alcotest.test_case "delay: zero flow" `Quick test_delay_zero_flow;
    Alcotest.test_case "delay: M/M/1 formulas (Eq. 24)" `Quick test_delay_mm1_formula;
    Alcotest.test_case "delay: cost = f * sojourn" `Quick test_delay_cost_sojourn_relation;
    Alcotest.test_case "delay: finite beyond capacity" `Quick test_delay_finite_beyond_capacity;
    Alcotest.test_case "delay: C^1 at the knee" `Quick test_delay_extension_continuity;
    Alcotest.test_case "delay: input validation" `Quick test_delay_invalid;
    Alcotest.test_case "traffic: accumulates duplicates" `Quick test_traffic_accumulates;
    Alcotest.test_case "traffic: validation" `Quick test_traffic_validation;
    Alcotest.test_case "traffic: scaling" `Quick test_traffic_scale;
    Alcotest.test_case "traffic: bits conversion" `Quick test_traffic_bits_conversion;
    Alcotest.test_case "params: set/get/validate" `Quick test_params_set_get;
    Alcotest.test_case "params: rejects bad sum" `Quick test_params_rejects_bad_sum;
    Alcotest.test_case "params: rejects non-neighbor" `Quick test_params_rejects_non_neighbor;
    Alcotest.test_case "params: clear and copy" `Quick test_params_clear_and_copy;
    Alcotest.test_case "params: assign" `Quick test_params_assign;
    Alcotest.test_case "params: cycle detection" `Quick test_params_acyclic_detects_loop;
    Alcotest.test_case "flows: 50/50 split" `Quick test_flows_split;
    Alcotest.test_case "flows: conservation" `Quick test_flows_conservation;
    Alcotest.test_case "flows: transit traffic" `Quick test_flows_transit_traffic;
    Alcotest.test_case "flows: cycle raises" `Quick test_flows_cycle_raises;
    Alcotest.test_case "flows: iterative fallback agrees" `Quick test_flows_iterative_fallback_matches_exact;
    Alcotest.test_case "flows: topological order" `Quick test_topological_order;
    Alcotest.test_case "flows: max utilization" `Quick test_max_utilization;
    Alcotest.test_case "evaluate: D_T and average delay" `Quick test_total_cost_and_avg_delay;
    Alcotest.test_case "evaluate: chain per-flow delay" `Quick test_per_flow_delay_chain;
    Alcotest.test_case "evaluate: split per-flow delay" `Quick test_per_flow_delay_weighted;
    Alcotest.test_case "evaluate: marginal distances" `Quick test_marginal_distances_decrease_downstream;
    Alcotest.test_case "evaluate: unrouted is infinite" `Quick test_unrouted_delay_infinite;
    QCheck_alcotest.to_alcotest prop_delay_marginal_increasing;
    QCheck_alcotest.to_alcotest prop_delay_cost_convex;
    Alcotest.test_case "evaluate: Little's-law identity" `Quick test_total_cost_equals_flow_weighted_delays;
    Alcotest.test_case "evaluate: zero-flow lower bound" `Quick test_flow_delay_lower_bounded_by_empty_network;
    QCheck_alcotest.to_alcotest prop_flows_conserve_random_splits;
    QCheck_alcotest.to_alcotest prop_littles_law_random_splits;
    Alcotest.test_case "feasibility: max-flow multipath" `Quick test_max_flow_uses_disjoint_paths;
    Alcotest.test_case "feasibility: feasible matrix" `Quick test_feasibility_feasible_matrix;
    Alcotest.test_case "feasibility: min-cut fraction" `Quick test_feasibility_min_cut_fraction;
    Alcotest.test_case "feasibility: fraction scales inversely" `Quick test_feasibility_fraction_scales_inversely;
    Alcotest.test_case "feasibility: capacity headroom cap" `Quick test_feasibility_cap_headroom;
  ]
