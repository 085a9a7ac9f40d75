(* Cross-library integration tests: the full experiment pipelines at
   reduced scale — the same code paths the benches run, with the
   paper's qualitative claims as assertions. *)

module Graph = Mdr_topology.Graph
module Fluid = Mdr_fluid
module Controller = Mdr_core.Controller
module Gallager = Mdr_gallager.Gallager
module Sim = Mdr_netsim.Sim

let check = Alcotest.(check bool)
let pkt = 4096.0

let cairn_traffic load =
  let g = Mdr_topology.Cairn.topology () in
  let pairs = Mdr_topology.Cairn.flow_pairs g in
  let traffic =
    Fluid.Traffic.of_pairs_bits ~n:(Graph.node_count g) ~packet_size:pkt
      ~rate_bits:(fun i -> load *. (2.0 +. (0.1 *. float_of_int i)) *. 1.0e6)
      pairs
  in
  (g, pairs, traffic)

let test_fig9_shape_fluid () =
  (* Figure 9: MP per-flow delays within a small envelope of OPT on
     CAIRN. *)
  let g, _, traffic = cairn_traffic 1.0 in
  let model = Fluid.Evaluate.model g ~packet_size:pkt in
  let opt = Gallager.solve model g traffic in
  let mp =
    Controller.run
      ~config:{ Controller.scheme = Mp; rounds = 60; ts_per_tl = 8; damping = 0.5 }
      model g traffic
  in
  let od = Fluid.Evaluate.per_flow_delays model opt.params opt.flows traffic in
  let md = Fluid.Evaluate.per_flow_delays model mp.params mp.flows traffic in
  List.iter2
    (fun (_, o) (_, m) -> check "within 5% envelope" true (m <= o *. 1.05))
    od md

(* Seed-averaged per-flow delays: the paper reports measured averages,
   and single-path oscillation makes individual sample paths noisy. *)
let mean_flow_delays g flows cfg ~seeds =
  let runs = List.map (fun seed -> Sim.run ~config:{ cfg with Sim.seed } g flows) seeds in
  let k = float_of_int (List.length seeds) in
  let per_flow =
    List.mapi
      (fun i _ ->
        List.fold_left
          (fun acc (r : Sim.result) ->
            acc +. ((List.nth r.flows i).mean_delay /. k))
          0.0 runs)
      flows
  in
  let avg =
    List.fold_left (fun acc (r : Sim.result) -> acc +. (r.avg_delay /. k)) 0.0 runs
  in
  (per_flow, avg)

let test_fig11_shape_packet_sim () =
  (* Figure 11: under load, SP's delays are a multiple of MP's for
     some flows, and worse on average (seed-averaged, like the paper's
     measured means). *)
  let g = Mdr_topology.Cairn.topology () in
  let flows =
    List.mapi
      (fun i (src, dst) ->
        { Sim.src; dst; rate_bits = 1.15 *. (2.0 +. (0.1 *. float_of_int i)) *. 1.0e6; burst = None })
      (Mdr_topology.Cairn.flow_pairs g)
  in
  let cfg = { Sim.default_config with sim_time = 80.0; warmup = 20.0 } in
  let seeds = [ 1; 2; 3 ] in
  let mp, mp_avg = mean_flow_delays g flows cfg ~seeds in
  let sp, sp_avg = mean_flow_delays g flows { cfg with scheme = Sim.Sp } ~seeds in
  check "network average: SP worse" true (sp_avg > mp_avg);
  let ratios = List.map2 (fun m s -> s /. m) mp sp in
  check "some flow at least 1.5x" true (List.exists (fun r -> r > 1.5) ratios)

let test_opt_is_lower_bound () =
  (* OPT must lower-bound both MP and SP in the fluid model. *)
  let g, _, traffic = cairn_traffic 1.0 in
  let model = Fluid.Evaluate.model g ~packet_size:pkt in
  let opt = Gallager.solve model g traffic in
  let mp = Controller.run ~config:{ Controller.scheme = Mp; rounds = 30; ts_per_tl = 5; damping = 0.5 } model g traffic in
  let sp = Controller.run ~config:{ Controller.scheme = Sp; rounds = 30; ts_per_tl = 1; damping = 0.5 } model g traffic in
  check "opt <= mp" true (opt.avg_delay <= mp.avg_delay *. 1.001);
  check "opt <= sp" true (opt.avg_delay <= sp.avg_delay *. 1.001)

let test_fluid_and_packet_sim_agree () =
  (* The packet simulator and the fluid model must agree on MP's CAIRN
     delays within stochastic tolerance — this ties the two halves of
     the reproduction together. *)
  let g, pairs, traffic = cairn_traffic 1.0 in
  let model = Fluid.Evaluate.model g ~packet_size:pkt in
  let mp_fluid =
    Controller.run
      ~config:{ Controller.scheme = Mp; rounds = 40; ts_per_tl = 5; damping = 0.5 }
      model g traffic
  in
  let flows =
    List.mapi
      (fun i (src, dst) ->
        { Sim.src; dst; rate_bits = (2.0 +. (0.1 *. float_of_int i)) *. 1.0e6; burst = None })
      pairs
  in
  let cfg = { Sim.default_config with sim_time = 60.0; warmup = 15.0 } in
  let mp_sim = Sim.run ~config:cfg g flows in
  let ratio = mp_sim.avg_delay /. mp_fluid.avg_delay in
  check "within 25%" true (ratio > 0.75 && ratio < 1.25)

let test_dynamic_bursts_mp_beats_sp () =
  (* The dynamic-traffic experiment: bursty sources, MP adapts better. *)
  let g = Mdr_topology.Cairn.topology () in
  let flows =
    List.mapi
      (fun i (src, dst) ->
        {
          Sim.src;
          dst;
          rate_bits = 1.1 *. (2.0 +. (0.1 *. float_of_int i)) *. 1.0e6;
          burst = Some (2.0, 2.0);
        })
      (Mdr_topology.Cairn.flow_pairs g)
  in
  let cfg = { Sim.default_config with sim_time = 60.0; warmup = 15.0 } in
  let mp = Sim.run ~config:cfg g flows in
  let sp = Sim.run ~config:{ cfg with scheme = Sim.Sp } g flows in
  check "MP adapts better to bursts" true (mp.avg_delay < sp.avg_delay)

let test_link_failure_recovery_end_to_end () =
  (* Control-plane pipeline: converge, fail a trunk, verify loop-free
     reconvergence to the alternate trunk. *)
  let module Network = Mdr_routing.Network in
  let module Router = Mdr_routing.Router in
  let g = Mdr_topology.Cairn.topology () in
  let violations = ref 0 in
  let observer net = if not (Network.check_loop_free net) then incr violations in
  let cost (l : Graph.link) = 1.0 +. (l.prop_delay *. 100.0) in
  let net = Network.create ~observer ~topo:g ~cost () in
  Network.run net;
  let isi = Graph.node_of_name g "isi" and mci = Graph.node_of_name g "mci-r" in
  Network.schedule_fail_duplex net ~at:1.0 ~a:isi ~b:mci;
  Network.run net;
  check "no transient loops" true (!violations = 0);
  check "still reaches east" true
    (Float.is_finite (Router.distance (Network.router net isi) ~dst:mci));
  check "quiescent" true (Network.quiescent net)

let suite =
  [
    Alcotest.test_case "fig 9 shape: MP within OPT envelope (fluid)" `Slow test_fig9_shape_fluid;
    Alcotest.test_case "fig 11 shape: SP multiple of MP (packet)" `Slow test_fig11_shape_packet_sim;
    Alcotest.test_case "OPT lower-bounds MP and SP" `Slow test_opt_is_lower_bound;
    Alcotest.test_case "fluid and packet models agree" `Slow test_fluid_and_packet_sim_agree;
    Alcotest.test_case "dynamic bursts: MP beats SP" `Slow test_dynamic_bursts_mp_beats_sp;
    Alcotest.test_case "CAIRN trunk failure recovery" `Quick test_link_failure_recovery_end_to_end;
  ]

let () =
  Alcotest.run "mdr"
    [
      ("util", Test_util.suite);
      ("pool", Test_pool.suite);
      ("topology", Test_topology.suite);
      ("parser", Test_parser.suite);
      ("eventsim", Test_eventsim.suite);
      ("fluid", Test_fluid.suite);
      ("costs", Test_costs.suite);
      ("routing", Test_routing.suite);
      ("incr_spf", Test_incr_spf.suite);
      ("dv", Test_dv.suite);
      ("faults", Test_faults.suite);
      ("gallager", Test_gallager.suite);
      ("core", Test_core.suite);
      ("netsim", Test_netsim.suite);
      ("experiments", Test_experiments.suite);
      ("server", Test_server.suite);
      ("wire", Test_wire.suite);
      ("analysis", Test_analysis.suite);
      ("integration", suite);
      ("fluid_flat", Test_fluid_flat.suite);
    ]
