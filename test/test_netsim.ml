(* Tests for the packet-level simulator: M/M/1 ground truth, traffic
   generator statistics, conservation (no loss), loop-freedom during
   full-system runs, and the MP-vs-SP ordering under load. *)

module Graph = Mdr_topology.Graph
module Sim = Mdr_netsim.Sim
module Traffic_gen = Mdr_netsim.Traffic_gen
module Engine = Mdr_eventsim.Engine
module Rng = Mdr_util.Rng
module Stats = Mdr_util.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let two_nodes () =
  let g = Graph.create ~names:[| "a"; "b" |] in
  Graph.add_duplex g "a" "b" ~capacity:10.0e6 ~prop_delay:0.001;
  g

let test_single_link_mm1_delay () =
  (* The simulator must reproduce the M/M/1 sojourn-time formula the
     whole fluid model rests on. *)
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 80.0; warmup = 15.0; seed = 2 } in
  let rate = 6.0e6 in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = rate; burst = None } ] in
  let c = 10.0e6 /. cfg.mean_packet_size and lam = rate /. cfg.mean_packet_size in
  let theory = (1.0 /. (c -. lam)) +. 0.001 in
  match r.flows with
  | [ f ] ->
    check "delivered plenty" true (f.delivered > 10_000);
    check_int "no drops" 0 f.dropped;
    check "within 5% of M/M/1" true
      (Float.abs (f.mean_delay -. theory) /. theory < 0.05)
  | _ -> Alcotest.fail "one flow expected"

let test_no_packet_loss_stable_load () =
  let topo = Mdr_topology.Net1.topology () in
  let flows =
    List.map
      (fun (src, dst) -> { Sim.src; dst; rate_bits = 2.0e6; burst = None })
      (Mdr_topology.Net1.flow_pairs topo)
  in
  let cfg = { Sim.default_config with sim_time = 30.0; warmup = 5.0 } in
  let r = Sim.run ~config:cfg topo flows in
  check "delivered" true (r.total_delivered > 50_000);
  check "negligible drops" true
    (float_of_int r.total_dropped /. float_of_int r.total_delivered < 1e-3)

let test_loop_freedom_throughout () =
  let topo = Mdr_topology.Net1.topology () in
  let flows =
    List.map
      (fun (src, dst) -> { Sim.src; dst; rate_bits = 3.0e6; burst = None })
      (Mdr_topology.Net1.flow_pairs topo)
  in
  let cfg = { Sim.default_config with sim_time = 40.0; warmup = 5.0; seed = 3 } in
  let r = Sim.run ~config:cfg topo flows in
  check_int "no loop violations" 0 r.loop_free_violations

let test_control_traffic_flows () =
  let topo = Mdr_topology.Net1.topology () in
  let cfg = { Sim.default_config with sim_time = 25.0 } in
  let r =
    Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 9; rate_bits = 1.0e6; burst = None } ]
  in
  check "LSUs were exchanged" true (r.control_messages > 50)

let test_sp_not_faster_than_mp_under_load () =
  let topo = Mdr_topology.Net1.topology () in
  let flows =
    List.mapi
      (fun i (src, dst) ->
        { Sim.src; dst; rate_bits = 1.5 *. (2.0 +. (0.1 *. float_of_int i)) *. 1.0e6; burst = None })
      (Mdr_topology.Net1.flow_pairs topo)
  in
  let cfg = { Sim.default_config with sim_time = 50.0; warmup = 10.0 } in
  let mp = Sim.run ~config:cfg topo flows in
  let sp = Sim.run ~config:{ cfg with scheme = Sim.Sp } topo flows in
  check "MP at least as good" true (mp.avg_delay <= sp.avg_delay *. 1.05)

let test_deterministic_given_seed () =
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 10.0; warmup = 1.0; seed = 5 } in
  let flow = [ { Sim.src = 0; dst = 1; rate_bits = 4.0e6; burst = None } ] in
  let a = Sim.run ~config:cfg topo flow in
  let b = Sim.run ~config:cfg topo flow in
  check "identical delivered" true (a.total_delivered = b.total_delivered);
  check "identical delay" true
    ((List.hd a.flows).mean_delay = (List.hd b.flows).mean_delay)

let test_seed_changes_results () =
  let topo = two_nodes () in
  let flow = [ { Sim.src = 0; dst = 1; rate_bits = 4.0e6; burst = None } ] in
  let cfg = { Sim.default_config with sim_time = 10.0; warmup = 1.0 } in
  let a = Sim.run ~config:{ cfg with seed = 1 } topo flow in
  let b = Sim.run ~config:{ cfg with seed = 2 } topo flow in
  check "different sample paths" true
    ((List.hd a.flows).mean_delay <> (List.hd b.flows).mean_delay)

let test_estimator_variants_run () =
  let topo = two_nodes () in
  let flow = [ { Sim.src = 0; dst = 1; rate_bits = 5.0e6; burst = None } ] in
  List.iter
    (fun estimator ->
      let cfg = { Sim.default_config with sim_time = 15.0; warmup = 3.0; estimator } in
      let r = Sim.run ~config:cfg topo flow in
      check "delivers" true (r.total_delivered > 1000))
    [ Sim.Mm1; Sim.Busy_period; Sim.Sojourn ]

let test_bursty_source_rate () =
  (* On-off sources must preserve the configured mean rate. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:11 in
  let gen =
    Traffic_gen.on_off ~rng ~rate_bits:2.0e6 ~mean_packet_size:4096.0
      ~on_mean:1.0 ~off_mean:1.0
  in
  let bits = ref 0.0 in
  Traffic_gen.start gen ~engine ~flow_id:0 ~src:0 ~dst:1
    ~inject:(fun p -> bits := !bits +. p.Mdr_netsim.Packet.size)
    ~until:400.0;
  Engine.run engine;
  let mean_rate = !bits /. 400.0 in
  check "within 10% of nominal" true
    (Float.abs (mean_rate -. 2.0e6) /. 2.0e6 < 0.10)

let test_poisson_source_rate () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:12 in
  let gen = Traffic_gen.poisson ~rng ~rate_bits:3.0e6 ~mean_packet_size:4096.0 in
  let bits = ref 0.0 and count = ref 0 in
  Traffic_gen.start gen ~engine ~flow_id:0 ~src:0 ~dst:1
    ~inject:(fun p ->
      bits := !bits +. p.Mdr_netsim.Packet.size;
      incr count)
    ~until:200.0;
  Engine.run engine;
  check "bit rate" true (Float.abs ((!bits /. 200.0) -. 3.0e6) /. 3.0e6 < 0.05);
  let pkt_rate = float_of_int !count /. 200.0 in
  check "packet rate" true (Float.abs (pkt_rate -. (3.0e6 /. 4096.0)) < 0.05 *. (3.0e6 /. 4096.0))

let test_bursty_delays_exceed_poisson () =
  (* Burstiness at equal mean load increases queueing delay. *)
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 60.0; warmup = 10.0; seed = 4 } in
  let base = { Sim.src = 0; dst = 1; rate_bits = 6.0e6; burst = None } in
  let smooth = Sim.run ~config:cfg topo [ base ] in
  let bursty = Sim.run ~config:cfg topo [ { base with burst = Some (0.5, 0.5) } ] in
  check "bursty slower" true
    ((List.hd bursty.flows).mean_delay > (List.hd smooth.flows).mean_delay)

let test_config_validation () =
  let topo = two_nodes () in
  check "bad timescales" true
    (try
       ignore
         (Sim.run
            ~config:{ Sim.default_config with t_s = 5.0; t_l = 1.0 }
            topo []);
       false
     with Invalid_argument _ -> true)

let test_finite_buffers_drop_under_overload () =
  (* 12 Mb/s into a 10 Mb/s link with a 32-packet buffer: tail drops
     appear, and the mean queue stays bounded by the buffer. *)
  let topo = two_nodes () in
  let cfg =
    { Sim.default_config with sim_time = 30.0; warmup = 5.0; buffer_packets = Some 32 }
  in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = 12.0e6; burst = None } ] in
  let f = List.hd r.flows in
  check "drops occur" true (f.dropped > 100);
  check "still delivers" true (f.delivered > 10_000);
  check "queue bounded" true (r.max_mean_queue <= 32.0)

let test_infinite_buffers_no_loss () =
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 20.0; warmup = 2.0 } in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = 8.0e6; burst = None } ] in
  Alcotest.(check int) "no loss" 0 (List.hd r.flows).dropped

let test_link_stats () =
  (* One 5 Mb/s flow on a 10 Mb/s link: utilization ~0.5 on the used
     direction, ~0 on the reverse. *)
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 40.0; warmup = 5.0 } in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = 5.0e6; burst = None } ] in
  Alcotest.(check int) "two links" 2 (List.length r.links);
  let fwd = List.find (fun (l : Sim.link_stat) -> l.src = 0) r.links in
  let back = List.find (fun (l : Sim.link_stat) -> l.src = 1) r.links in
  check "forward utilization ~0.5" true
    (Float.abs (fwd.utilization -. 0.5) < 0.05);
  check "forward carried packets" true (fwd.packets > 10_000);
  check "reverse only control traffic" true (back.utilization < 0.01);
  (* M/M/1 sanity: mean packets in system = rho/(1-rho) ~ 1. *)
  check "mean queue near rho/(1-rho)" true (Float.abs (fwd.mean_queue -. 1.0) < 0.25)

let test_mean_hops () =
  (* On the two-node network every packet takes exactly one hop. *)
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 10.0; warmup = 1.0 } in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = 4.0e6; burst = None } ] in
  Alcotest.(check (float 1e-9)) "one hop" 1.0 (List.hd r.flows).mean_hops

let test_ecmp_uses_both_equal_paths () =
  (* Symmetric diamond: ECMP's even split shows up as both a-links
     carrying roughly half the traffic. *)
  let g = Graph.create ~names:[| "s"; "a"; "b"; "d" |] in
  List.iter
    (fun (x, y) -> Graph.add_duplex g x y ~capacity:10.0e6 ~prop_delay:0.001)
    [ ("s", "a"); ("a", "d"); ("s", "b"); ("b", "d") ];
  let cfg =
    { Sim.default_config with scheme = Sim.Ecmp; sim_time = 30.0; warmup = 5.0 }
  in
  let r = Sim.run ~config:cfg g [ { Sim.src = 0; dst = 3; rate_bits = 6.0e6; burst = None } ] in
  let util src dst =
    (List.find (fun (l : Sim.link_stat) -> l.src = src && l.dst = dst) r.links)
      .utilization
  in
  check "path a used" true (util 0 1 > 0.2);
  check "path b used" true (util 0 2 > 0.2);
  check "roughly even" true (Float.abs (util 0 1 -. util 0 2) < 0.1)

let test_p95_at_least_mean () =
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 20.0; warmup = 2.0 } in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = 5.0e6; burst = None } ] in
  let f = List.hd r.flows in
  check "p95 >= mean" true (f.p95_delay >= f.mean_delay)

let test_timeline_collected () =
  let topo = two_nodes () in
  let cfg = { Sim.default_config with sim_time = 20.0; warmup = 2.0 } in
  let r = Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 1; rate_bits = 5.0e6; burst = None } ] in
  check "timeline nonempty" true (List.length r.delay_timeline > 10);
  List.iter
    (fun (t, d, c) ->
      check "time in range" true (t >= 0.0 && t <= 20.0);
      check "positive delay" true (d > 0.0);
      check "positive count" true (c > 0))
    r.delay_timeline

let test_link_failure_reroutes () =
  (* Square: 0-1-3 and 0-2-3. Fail 1-3 mid-run: traffic must reroute
     via 2 and keep being delivered. *)
  let g = Graph.create ~names:[| "s"; "a"; "b"; "d" |] in
  List.iter
    (fun (x, y) -> Graph.add_duplex g x y ~capacity:10.0e6 ~prop_delay:0.001)
    [ ("s", "a"); ("a", "d"); ("s", "b"); ("b", "d") ];
  let cfg = { Sim.default_config with sim_time = 40.0; warmup = 5.0; t_l = 4.0; t_s = 1.0 } in
  let events = [ Sim.Fail_duplex { at = 15.0; a = 1; b = 3 } ] in
  let r =
    Sim.run ~config:cfg ~events g
      [ { Sim.src = 0; dst = 3; rate_bits = 4.0e6; burst = None } ]
  in
  let f = List.hd r.flows in
  (* Deliveries continue well after the failure. *)
  let late = List.filter (fun (t, _, _) -> t > 20.0) r.delay_timeline in
  check "delivers after failure" true (List.length late > 10);
  check "most packets delivered" true
    (float_of_int f.dropped /. float_of_int (f.delivered + f.dropped) < 0.02);
  check "loop free throughout" true (r.loop_free_violations = 0)

let test_link_failure_and_restore () =
  let g = Graph.create ~names:[| "s"; "a"; "b"; "d" |] in
  List.iter
    (fun (x, y) -> Graph.add_duplex g x y ~capacity:10.0e6 ~prop_delay:0.001)
    [ ("s", "a"); ("a", "d"); ("s", "b"); ("b", "d") ];
  let cfg = { Sim.default_config with sim_time = 40.0; warmup = 5.0; t_l = 4.0; t_s = 1.0 } in
  let events =
    [
      Sim.Fail_duplex { at = 12.0; a = 1; b = 3 };
      Sim.Restore_duplex { at = 25.0; a = 1; b = 3 };
    ]
  in
  let r =
    Sim.run ~config:cfg ~events g
      [ { Sim.src = 0; dst = 3; rate_bits = 9.0e6; burst = None } ]
  in
  (* With 9 Mb/s on a single remaining 10 Mb/s path, delays during the
     outage exceed the post-restore (split) delays. *)
  let mean_over lo hi =
    let xs =
      List.filter_map
        (fun (t, d, _) -> if t >= lo && t < hi then Some d else None)
        r.delay_timeline
    in
    Stats.mean_of_list xs
  in
  let during = mean_over 16.0 24.0 and after = mean_over 32.0 40.0 in
  check "delay spikes during outage" true (during > after);
  check "loop free" true (r.loop_free_violations = 0)

(* A departure due at the very instant of a running event counts as
   done before it exactly when the transmission started no later than
   the event was scheduled, as if the departure were an event scheduled
   at the transmission's start. A 1000-bit packet on a 1 Mb/s link takes
   1 ms; events at its departure instant see it queued or gone. *)
let test_link_departure_ties () =
  let e = Engine.create () in
  let link = { Graph.src = 0; dst = 1; capacity = 1.0e6; prop_delay = 0.001 } in
  let l =
    Mdr_netsim.Link.create ~engine:e ~link
      ~estimator:(Mdr_costs.Estimator.busy_period ~prop_delay:0.001)
      ~deliver:ignore ~drop:ignore ()
  in
  let packet = { Mdr_netsim.Packet.flow_id = 0; src = 0; dst = 1; size = 1000.0; created = 0.0; hops = 0 } in
  let seen = ref [] in
  let look name () = seen := (name, Mdr_netsim.Link.queue_length l) :: !seen in
  (* Scheduled at 0, before the transmission starts at 0.5 ms. *)
  ignore (Engine.schedule_at e ~time:0.0015 (look "scheduled before the start"));
  ignore
    (Engine.schedule_at e ~time:0.0005 (fun () ->
         Mdr_netsim.Link.send l packet;
         (* Scheduled at the start itself, after the send. *)
         ignore (Engine.schedule_at e ~time:0.0015 (look "scheduled at the start"))));
  ignore
    (Engine.schedule_at e ~time:0.001 (fun () ->
         ignore (Engine.schedule_at e ~time:0.0015 (look "scheduled after the start"))));
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "queue at the departure instant"
    [
      ("scheduled before the start", 1);
      ("scheduled at the start", 0);
      ("scheduled after the start", 0);
    ]
    (List.rev !seen);
  check_int "sent" 1 (Mdr_netsim.Link.packets_sent l)

(* A failure keeps what already left: departed packets still arrive,
   queued ones go to [drop] in queue order, and the one in service is
   lost without a drop record. 1000-bit packets on a 1 Mb/s link with
   10 ms propagation depart 1 ms apart. *)
let test_link_failure_bookkeeping () =
  let e = Engine.create () in
  let link = { Graph.src = 0; dst = 1; capacity = 1.0e6; prop_delay = 0.01 } in
  let delivered = ref [] and dropped = ref [] in
  let note log (p : Mdr_netsim.Packet.t) = log := p.flow_id :: !log in
  let l =
    Mdr_netsim.Link.create ~engine:e ~link
      ~estimator:(Mdr_costs.Estimator.busy_period ~prop_delay:0.01)
      ~deliver:(note delivered) ~drop:(note dropped) ()
  in
  let packet id =
    { Mdr_netsim.Packet.flow_id = id; src = 0; dst = 1; size = 1000.0; created = 0.0; hops = 0 }
  in
  List.iter (fun id -> Mdr_netsim.Link.send l (packet id)) [ 1; 2; 3; 4 ];
  (* Packets 1 and 2 have left by 2.5 ms, 3 is in service, 4 waits. *)
  ignore
    (Engine.schedule_at e ~time:0.0025 (fun () ->
         Mdr_netsim.Link.fail l;
         check_int "nothing left on the link" 0 (Mdr_netsim.Link.queue_length l);
         Mdr_netsim.Link.send l (packet 5)));
  ignore
    (Engine.schedule_at e ~time:0.1 (fun () ->
         Mdr_netsim.Link.restore l;
         Mdr_netsim.Link.send l (packet 6)));
  Engine.run e;
  Alcotest.(check (list int)) "delivered" [ 1; 2; 6 ] (List.rev !delivered);
  Alcotest.(check (list int)) "dropped" [ 4; 5 ] (List.rev !dropped);
  check_int "sent" 3 (Mdr_netsim.Link.packets_sent l);
  check_int "nothing pending" 0 (Engine.pending e)

(* Exact results of short CAIRN runs (load 1.05, 15 simulated seconds),
   pinned so that a change to the data plane's bookkeeping — queueing,
   departures, failure drops, finite buffers — or to when forwarding
   tables are refreshed shows up as a changed count or delay bit. The
   cases cover the three schemes, a duplex failure and its restore, a
   node crash and restart, and 8-packet buffers. *)
type pinned = {
  delivered : int;
  dropped : int;
  control : int;
  delay_bits : int64;
  packets : int list;  (* per link, in [Sim.result.links] order *)
}

let test_pinned_cairn_results () =
  let cairn = Mdr_experiments.Workload.cairn ~load:1.05 in
  let topo = cairn.Mdr_experiments.Workload.topo in
  let node = Graph.node_of_name topo in
  let base = { Sim.default_config with sim_time = 15.0; warmup = 2.0 } in
  let isi = node "isi" and mci = node "mci-r" and anl = node "anl" in
  let cases =
    [
      ("MP", base, []);
      ("SP", { base with scheme = Sim.Sp }, []);
      ("ECMP", { base with scheme = Sim.Ecmp }, []);
      ( "MP fail/restore isi-mci-r",
        base,
        [
          Sim.Fail_duplex { at = 5.0; a = isi; b = mci };
          Sim.Restore_duplex { at = 10.0; a = isi; b = mci };
        ] );
      ( "MP crash/restart anl",
        base,
        [ Sim.Crash_node { at = 5.0; node = anl }; Sim.Restart_node { at = 10.0; node = anl } ] );
      ("MP buffer 8", { base with buffer_packets = Some 8 }, []);
    ]
  in
  let expected =
    [
    (* MP *) { delivered = 91525; dropped = 8; control = 4594; delay_bits = 4576518907470841948L;
    packets = [ 241; 9731; 7704; 0; 241; 0; 8046; 1045; 44; 10162; 110; 16845; 0; 110; 664; 0; 1152; 664; 71; 1473; 10284; 785; 16931; 17583; 273; 10556; 0; 0; 9979; 10378; 7768; 398; 3551; 7698; 3185; 4255; 17256; 239; 831; 831; 9278; 239; 8944; 10106; 0; 10478; 0; 3079; 9188; 7024; 21205; 7348; 15323; 5071; 16057; 7022; 138; 4933; 0; 138; 138; 0; 4933; 7023; 8021; 12077; 9925; 9924; 398; 0 ] };
    (* SP *) { delivered = 91497; dropped = 32; control = 4605; delay_bits = 4577442189188406607L;
    packets = [ 1675; 9898; 15154; 0; 1675; 0; 3794; 6731; 7495; 1007; 0; 8733; 0; 0; 9819; 0; 6728; 9821; 0; 11813; 4432; 5087; 6582; 10133; 9822; 1007; 0; 0; 11582; 15445; 7915; 4654; 7255; 10742; 4866; 7489; 14353; 2900; 0; 0; 10109; 2900; 6283; 10101; 0; 10478; 0; 3883; 9183; 6212; 19589; 7653; 13489; 1699; 11939; 6208; 0; 1699; 0; 0; 0; 0; 1699; 6211; 8159; 12461; 9539; 9539; 4654; 0 ] };
    (* ECMP *) { delivered = 91497; dropped = 32; control = 4566; delay_bits = 4577438808615486046L;
    packets = [ 1675; 9898; 15154; 0; 1675; 0; 3794; 6731; 7495; 1007; 0; 8733; 0; 0; 9819; 0; 6728; 9821; 0; 11813; 4432; 5087; 6582; 10133; 9822; 1007; 0; 0; 11582; 15445; 7915; 4654; 7255; 10742; 4866; 7489; 14353; 2900; 0; 0; 10109; 2900; 6283; 10101; 0; 10478; 0; 3883; 9183; 6212; 19589; 7564; 13489; 1699; 11939; 6208; 0; 1699; 0; 0; 0; 0; 1699; 6211; 8159; 12372; 9628; 9628; 4654; 0 ] };
    (* MP fail/restore isi-mci-r *) { delivered = 91483; dropped = 43; control = 4941; delay_bits = 4577551001745403452L;
    packets = [ 363; 13569; 14495; 0; 363; 0; 8072; 1141; 6835; 9742; 207; 19765; 0; 207; 1082; 0; 1345; 1084; 169; 1568; 15799; 1207; 16823; 10785; 273; 10556; 0; 0; 13932; 10378; 11769; 3192; 6006; 7698; 5646; 4248; 17426; 5037; 831; 831; 9278; 5037; 4141; 10106; 0; 10478; 0; 5715; 9181; 4387; 17225; 7929; 15316; 5072; 13261; 4387; 138; 4934; 0; 138; 138; 0; 4934; 4387; 8022; 11148; 10851; 10850; 3192; 0 ] };
    (* MP crash/restart anl *) { delivered = 91495; dropped = 26; control = 4693; delay_bits = 4576951251041109504L;
    packets = [ 374; 10886; 8015; 0; 374; 0; 7927; 1386; 2944; 10255; 257; 18311; 0; 257; 660; 0; 1638; 660; 307; 1722; 13846; 781; 16673; 17272; 273; 10556; 0; 0; 8684; 9518; 5536; 2866; 6483; 7783; 7070; 3443; 15550; 239; 269; 269; 9837; 239; 8944; 10104; 0; 10478; 0; 4686; 9188; 5781; 22483; 5146; 14999; 6253; 13217; 5410; 506; 6115; 0; 506; 506; 0; 6113; 5780; 7649; 15023; 6976; 6974; 2863; 0 ] };
    (* MP buffer 8 *) { delivered = 90998; dropped = 535; control = 4497; delay_bits = 4576489145547344261L;
    packets = [ 237; 9621; 7704; 0; 237; 0; 8042; 1045; 44; 10380; 110; 16816; 0; 110; 433; 0; 1152; 433; 71; 1460; 10510; 541; 16764; 17553; 273; 10556; 0; 0; 9895; 10063; 7767; 398; 6575; 7698; 6515; 4190; 17219; 238; 831; 831; 9278; 238; 8859; 10103; 0; 10478; 0; 6132; 9117; 3965; 21021; 3978; 15521; 5078; 16017; 3957; 135; 4943; 0; 135; 135; 0; 4938; 3961; 7996; 12072; 9923; 9917; 398; 0 ] };
    ]
  in
  List.iter2
    (fun (name, config, events) want ->
      let r = Sim.run ~config ~events topo (Mdr_experiments.Workload.sim_flows cairn) in
      check_int (name ^ ": delivered") want.delivered r.total_delivered;
      check_int (name ^ ": dropped") want.dropped r.total_dropped;
      check_int (name ^ ": control messages") want.control r.control_messages;
      Alcotest.(check int64) (name ^ ": avg_delay bits") want.delay_bits
        (Int64.bits_of_float r.avg_delay);
      Alcotest.(check (list int)) (name ^ ": link packets") want.packets
        (List.map (fun (l : Sim.link_stat) -> l.packets) r.links))
    cases expected

let suite =
  [
    Alcotest.test_case "single link reproduces M/M/1" `Slow test_single_link_mm1_delay;
    Alcotest.test_case "no loss at stable load" `Slow test_no_packet_loss_stable_load;
    Alcotest.test_case "loop-free throughout a run" `Slow test_loop_freedom_throughout;
    Alcotest.test_case "control plane active" `Quick test_control_traffic_flows;
    Alcotest.test_case "MP <= SP under load" `Slow test_sp_not_faster_than_mp_under_load;
    Alcotest.test_case "deterministic per seed" `Quick test_deterministic_given_seed;
    Alcotest.test_case "seed changes sample path" `Quick test_seed_changes_results;
    Alcotest.test_case "all estimators usable" `Quick test_estimator_variants_run;
    Alcotest.test_case "on-off source mean rate" `Quick test_bursty_source_rate;
    Alcotest.test_case "poisson source rates" `Quick test_poisson_source_rate;
    Alcotest.test_case "burstiness raises delay" `Slow test_bursty_delays_exceed_poisson;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "p95 >= mean" `Quick test_p95_at_least_mean;
    Alcotest.test_case "mean hops" `Quick test_mean_hops;
    Alcotest.test_case "per-link statistics" `Slow test_link_stats;
    Alcotest.test_case "ECMP splits equal paths" `Slow test_ecmp_uses_both_equal_paths;
    Alcotest.test_case "finite buffers drop at overload" `Slow test_finite_buffers_drop_under_overload;
    Alcotest.test_case "unbounded buffers lossless" `Quick test_infinite_buffers_no_loss;
    Alcotest.test_case "delay timeline collected" `Quick test_timeline_collected;
    Alcotest.test_case "link failure reroutes traffic" `Slow test_link_failure_reroutes;
    Alcotest.test_case "failure + restore delay profile" `Slow test_link_failure_and_restore;
    Alcotest.test_case "pinned CAIRN results" `Quick test_pinned_cairn_results;
    Alcotest.test_case "link departures at an event's instant" `Quick test_link_departure_ties;
    Alcotest.test_case "link failure bookkeeping" `Quick test_link_failure_bookkeeping;
  ]
