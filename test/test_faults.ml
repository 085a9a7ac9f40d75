(* The fault-injection subsystem: channel fault models, the reliable
   transport under loss/duplication/reordering, node crash/restart,
   partitions, and the chaos campaigns — randomized churn under which
   MPDA and DV must keep the loop-freedom and LFI invariants after
   every single processed event (Theorem 3 under fire). *)

module Graph = Mdr_topology.Graph
module Generators = Mdr_topology.Generators
module Rng = Mdr_util.Rng
module Engine = Mdr_eventsim.Engine
module Router = Mdr_routing.Router
module Network = Mdr_routing.Network
module Dv_network = Mdr_routing.Harness.Dv_network
module Harness = Mdr_routing.Harness
module Hello = Mdr_routing.Hello
module Channel = Mdr_faults.Channel
module Campaign = Mdr_faults.Campaign

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let base_cost (l : Graph.link) = 1.0 +. (l.prop_delay *. 1000.0)

(* --- Channel fault models -------------------------------------------- *)

let test_channel_semantics () =
  let rng = Rng.create ~seed:1 in
  check "ideal delivers once" true (Channel.decide Channel.ideal ~rng ~now:0.0 = [ 0.0 ]);
  check "drop 1 loses all" true
    (Channel.decide (Channel.drop ~p:1.0 ()) ~rng ~now:0.0 = []);
  check "drop 0 keeps all" true
    (Channel.decide (Channel.drop ~p:0.0 ()) ~rng ~now:0.0 = [ 0.0 ]);
  check_int "duplicate 1 doubles" 2
    (List.length (Channel.decide (Channel.duplicate ~p:1.0 ()) ~rng ~now:0.0));
  let inside = Channel.decide (Channel.blackout ~from_:1.0 ~until_:2.0) ~rng ~now:1.5 in
  let outside = Channel.decide (Channel.blackout ~from_:1.0 ~until_:2.0) ~rng ~now:2.0 in
  check "blackout drops inside" true (inside = []);
  check "blackout passes outside" true (outside = [ 0.0 ]);
  let jittered =
    Channel.decide (Channel.jitter ~max_delay:0.5 ()) ~rng:(Rng.create ~seed:3) ~now:0.0
  in
  check "jitter delays within bound" true
    (match jittered with [ d ] -> d >= 0.0 && d <= 0.5 | _ -> false);
  check "quiet_after finds blackout end" true
    (Float.equal
       (Channel.quiet_after
          (Channel.all
             [ Channel.drop ~p:0.1 (); Channel.blackout ~from_:1.0 ~until_:7.5 ]))
       7.5);
  check "bad probability rejected" true
    (try
       ignore (Channel.drop ~p:1.5 ());
       false
     with Invalid_argument _ -> true)

let test_channel_determinism () =
  let model =
    Channel.all
      [ Channel.drop ~p:0.3 (); Channel.duplicate ~p:0.2 (); Channel.jitter ~max_delay:0.1 () ]
  in
  let trace seed =
    let rng = Rng.create ~seed in
    List.init 200 (fun i -> Channel.decide model ~rng ~now:(float_of_int i))
  in
  check "same seed, same fault sequence" true (trace 42 = trace 42);
  check "different seed, different sequence" true (trace 42 <> trace 43)

(* --- Reliable transport over lossy channels --------------------------- *)

let settle net =
  let engine = Network.engine net in
  let rec go () =
    if Network.quiescent net then true
    else if Engine.now engine > 600.0 || Engine.pending engine = 0 then false
    else begin
      ignore (Engine.step engine);
      go ()
    end
  in
  go ()

let test_lossy_convergence_net1 () =
  let topo = Mdr_topology.Net1.topology () in
  let same, retx = Campaign.successor_agreement ~cost:base_cost ~topo ~seed:7 () in
  check "NET1: successor sets match the lossless run at 20% drop" true same;
  check "NET1: the transport actually retransmitted" true (retx > 0)

let test_lossy_convergence_cairn () =
  let topo = Mdr_topology.Cairn.topology () in
  let same, retx = Campaign.successor_agreement ~cost:base_cost ~topo ~seed:11 () in
  check "CAIRN: successor sets match the lossless run at 20% drop" true same;
  check "CAIRN: the transport actually retransmitted" true (retx > 0)

let test_reordering_duplication_storm () =
  (* Heavy jitter far above the propagation delays plus duplication:
     the transport must deliver in order exactly once, keeping the
     audit clean on every event. *)
  let rng = Rng.create ~seed:5 in
  let topo = Generators.ring_with_chords ~rng ~n:8 ~chords:3 ~capacity:1.0e7 ~prop_delay:0.001 in
  let violations = ref 0 in
  let observer net =
    if not (Network.check_loop_free net && Network.check_lfi net) then incr violations
  in
  let net = Network.create ~observer ~topo ~cost:base_cost () in
  Network.set_channel net
    (Channel.to_channel
       (Channel.all [ Channel.duplicate ~p:0.3 (); Channel.jitter ~max_delay:0.05 () ])
       ~rng:(Rng.create ~seed:6));
  Network.schedule_link_cost net ~at:1.0 ~src:0 ~dst:1 ~cost:25.0;
  Network.schedule_fail_duplex net ~at:2.0 ~a:2 ~b:3;
  Network.schedule_restore_duplex net ~at:3.0 ~a:2 ~b:3
    ~cost:(base_cost (Graph.link_exn topo ~src:2 ~dst:3));
  check "settles" true (settle net);
  check_int "no invariant violations under reorder/dup" 0 !violations;
  check "loop-free at the end" true (Network.check_loop_free net)

let test_dv_lossy_convergence () =
  let rng = Rng.create ~seed:9 in
  let topo = Generators.ring_with_chords ~rng ~n:7 ~chords:2 ~capacity:1.0e7 ~prop_delay:0.002 in
  let violations = ref 0 in
  let observer net =
    if not (Dv_network.check_loop_free net && Dv_network.check_lfi net) then
      incr violations
  in
  let net = Dv_network.create ~observer ~topo ~cost:base_cost () in
  Dv_network.set_channel net
    (Channel.to_channel (Channel.drop ~p:0.25 ()) ~rng:(Rng.create ~seed:10));
  let engine = Dv_network.engine net in
  let rec go () =
    if Dv_network.quiescent net then true
    else if Engine.now engine > 600.0 || Engine.pending engine = 0 then false
    else begin
      ignore (Engine.step engine);
      go ()
    end
  in
  check "DV settles over a 25%-drop channel" true (go ());
  check_int "DV: no invariant violations" 0 !violations;
  let r = Dv_network.router net 0 in
  List.iter
    (fun dst ->
      check "DV: every destination reachable" true
        (Float.is_finite (Mdr_routing.Dv_router.distance r ~dst)))
    (List.filter (fun d -> d <> 0) (Graph.nodes topo));
  check "DV: retransmissions counted in total" true
    (Dv_network.total_messages net
    = Array.fold_left
        (fun acc i -> acc + Mdr_routing.Dv_router.messages_sent (Dv_network.router net i))
        (Dv_network.retransmissions net)
        (Array.init (Graph.node_count topo) Fun.id))

(* --- Defensive link scheduling (satellite) ----------------------------- *)

let test_defensive_link_events () =
  let topo = Generators.ring ~n:5 ~capacity:1.0e7 ~prop_delay:0.001 in
  let net = Network.create ~topo ~cost:base_cost () in
  check "fail of nonexistent link raises" true
    (try
       Network.schedule_fail_duplex net ~at:1.0 ~a:0 ~b:2;
       false
     with Invalid_argument _ -> true);
  check "restore of nonexistent link raises" true
    (try
       Network.schedule_restore_duplex net ~at:1.0 ~a:1 ~b:3 ~cost:1.0;
       false
     with Invalid_argument _ -> true);
  check "out-of-range node raises" true
    (try
       Network.schedule_fail_duplex net ~at:1.0 ~a:0 ~b:17;
       false
     with Invalid_argument _ -> true)

let test_idempotent_fail_restore () =
  let topo = Generators.ring ~n:5 ~capacity:1.0e7 ~prop_delay:0.001 in
  let cost = base_cost (Graph.link_exn topo ~src:0 ~dst:1) in
  let net = Network.create ~topo ~cost:base_cost () in
  (* Double fail, double restore: the second of each must be a no-op. *)
  Network.schedule_fail_duplex net ~at:1.0 ~a:0 ~b:1;
  Network.schedule_fail_duplex net ~at:1.1 ~a:0 ~b:1;
  Network.schedule_restore_duplex net ~at:2.0 ~a:0 ~b:1 ~cost;
  Network.schedule_restore_duplex net ~at:2.1 ~a:0 ~b:1 ~cost;
  Network.run net;
  check "quiescent after double fail/restore" true (Network.quiescent net);
  let msgs = Network.total_messages net in
  (* A restore of an up link must not trigger another LSU exchange. *)
  Network.schedule_restore_duplex net ~at:3.0 ~a:0 ~b:1 ~cost;
  Network.run net;
  check_int "restore of an up link sends nothing" msgs (Network.total_messages net);
  check "link still up" true (Network.link_is_up net ~src:0 ~dst:1);
  check "loop-free" true (Network.check_loop_free net)

(* --- Crash / restart and partitions ----------------------------------- *)

let test_crash_restart_reconverges () =
  let rng = Rng.create ~seed:20 in
  let topo = Generators.ring_with_chords ~rng ~n:8 ~chords:3 ~capacity:1.0e7 ~prop_delay:0.002 in
  let violations = ref 0 in
  let observer net =
    if not (Network.check_loop_free net && Network.check_lfi net) then incr violations
  in
  let net = Network.create ~observer ~topo ~cost:base_cost () in
  Network.schedule_node_crash net ~at:1.0 ~node:3;
  Network.run ~until:1.5 net;
  check "crashed node is down" true (not (Network.node_is_up net 3));
  check "links to the crashed node are down" true
    (not (Network.link_is_up net ~src:2 ~dst:3 || Network.link_is_up net ~src:3 ~dst:4));
  Network.schedule_node_restart net ~at:2.0 ~node:3;
  Network.run net;
  check "restarted node is up" true (Network.node_is_up net 3);
  check "quiescent after restart" true (Network.quiescent net);
  check_int "no invariant violations across crash/restart" 0 !violations;
  (* The restarted router relearns every route. *)
  let r = Network.router net 3 in
  List.iter
    (fun dst ->
      if dst <> 3 then
        check "restarted node reaches everyone" true
          (Float.is_finite (Router.distance r ~dst)))
    (Graph.nodes topo);
  check "crash of a dead node is a no-op" true
    (let before = Network.total_messages net in
     Network.schedule_node_restart net ~at:10.0 ~node:3;
     Network.run net;
     Network.total_messages net = before)

let test_partition_heals () =
  let topo = Mdr_topology.Net1.topology () in
  let violations = ref 0 in
  let observer net =
    if not (Network.check_loop_free net && Network.check_lfi net) then incr violations
  in
  let net = Network.create ~observer ~topo ~cost:base_cost () in
  let group = [ 0; 1; 2 ] in
  Network.schedule_partition net ~at:1.0 ~heal_at:3.0 ~group;
  Network.run ~until:2.5 net;
  (* During the partition both sides must consider the cut crossed
     unreachable — and stay loop-free while concluding it. *)
  let r9 = Network.router net 9 in
  check "cut destination unreachable during partition" true
    (not (Float.is_finite (Router.distance r9 ~dst:0)));
  Network.run net;
  check "quiescent after heal" true (Network.quiescent net);
  check_int "no invariant violations across partition/heal" 0 !violations;
  check "healed: every pair reachable again" true
    (List.for_all
       (fun dst -> dst = 9 || Float.is_finite (Router.distance r9 ~dst))
       (Graph.nodes topo))

(* --- Hello-based failure detection (tentpole) -------------------------- *)

let test_zero_loss_channel_transparent () =
  (* Installing a channel engages sequencing, ACKs and retransmission
     timers; with a zero-loss channel that machinery must be fully
     transparent: the network converges to the same routes and never
     retransmits. *)
  let topo = Mdr_topology.Net1.topology () in
  let bare = Network.create ~topo ~cost:base_cost () in
  Network.run bare;
  let piped = Network.create ~topo ~cost:base_cost () in
  Network.set_channel piped
    (Channel.to_channel Channel.ideal ~rng:(Rng.create ~seed:1));
  Network.run piped;
  check "bare run quiescent" true (Network.quiescent bare);
  check "zero-loss run quiescent" true (Network.quiescent piped);
  check_int "zero-loss channel never retransmits" 0
    (Network.retransmissions piped);
  List.iter
    (fun dst ->
      List.iter
        (fun node ->
          check "identical successor sets" true
            (Network.successor_sets bare ~dst node
            = Network.successor_sets piped ~dst node);
          check "identical distances" true
            (Float.equal
               (Router.distance (Network.router bare node) ~dst)
               (Router.distance (Network.router piped node) ~dst)))
        (Graph.nodes topo))
    (Graph.nodes topo)

let test_hello_partition_heal_reforms_adjacencies () =
  (* Under hello detection a healed partition must re-handshake every
     cut adjacency back to Full in both directions — the session
     numbers force both sides through a clean teardown/reform. *)
  let topo = Mdr_topology.Net1.topology () in
  let net =
    Network.create
      ~detection:(Harness.Hello Hello.default_params)
      ~seed:3 ~topo ~cost:base_cost ()
  in
  let group = [ 0; 1; 2 ] in
  let crosses (l : Graph.link) = List.mem l.src group <> List.mem l.dst group in
  let cut = List.filter crosses (Graph.links topo) in
  check "NET1 has cut links" true (cut <> []);
  Network.schedule_partition net ~at:1.0 ~heal_at:10.0 ~group;
  (* Partition at 1 s + 2 s dead interval: by 8 s every cut adjacency
     must have been inferred down (no oracle told anyone). *)
  Network.run ~until:8.0 net;
  List.iter
    (fun (l : Graph.link) ->
      check "cut adjacency inferred down" true
        (Network.adj_state net ~node:l.src ~nbr:l.dst = Hello.Down))
    cut;
  Network.run ~until:60.0 net;
  List.iter
    (fun (l : Graph.link) ->
      check "healed adjacency Full both directions" true
        (Network.adj_state net ~node:l.src ~nbr:l.dst = Hello.Full
        && Network.adj_state net ~node:l.dst ~nbr:l.src = Hello.Full))
    (Graph.links topo);
  check "quiescent after heal" true (Network.quiescent net)

let test_flap_damping_suppresses () =
  (* A link flapping faster than the damping half-life must end up
     suppressed (TwoWay, withheld from routing) even while physically
     up; hellos are sped up so each outage is detected. *)
  let params =
    {
      Hello.hello_interval = 0.1;
      jitter = 0.25;
      dead_interval = 0.35;
      damping = Some Hello.default_damping;
    }
  in
  let topo = Mdr_topology.Net1.topology () in
  let net =
    Network.create ~detection:(Harness.Hello params) ~seed:5 ~topo
      ~cost:base_cost ()
  in
  let a, b = (0, 1) in
  let cost = base_cost (Graph.link_exn topo ~src:a ~dst:b) in
  for i = 0 to 2 do
    let at = 2.0 +. (2.0 *. float_of_int i) in
    Network.schedule_fail_duplex net ~at ~a ~b;
    Network.schedule_restore_duplex net ~at:(at +. 1.0) ~a ~b ~cost
  done;
  (* Last restore at 6 s; probe shortly after, well inside the ~14 s
     suppression hold. *)
  Network.run ~until:7.5 net;
  check "link physically up" true (Network.link_is_up net ~src:a ~dst:b);
  check "three flaps detected" true (Network.adj_flaps net ~node:a ~nbr:b >= 3);
  check "adjacency suppressed after repeated flaps" true
    (Network.adj_suppressed net ~node:a ~nbr:b
    || Network.adj_suppressed net ~node:b ~nbr:a);
  check "suppressed means withheld, not Full" true
    (Network.adj_state net ~node:a ~nbr:b <> Hello.Full
    || Network.adj_state net ~node:b ~nbr:a <> Hello.Full);
  (* The penalty decays; eventually the adjacency must come back and
     the network must settle. *)
  let engine = Network.engine net in
  let rec go () =
    if Network.quiescent net then true
    else if Engine.now engine > 300.0 || Engine.pending engine = 0 then false
    else begin
      ignore (Engine.step engine);
      go ()
    end
  in
  check "suppression eventually released and settled" true (go ());
  check "adjacency Full again" true
    (Network.adj_state net ~node:a ~nbr:b = Hello.Full
    && Network.adj_state net ~node:b ~nbr:a = Hello.Full)

(* --- Data-plane crash/restart in the packet simulator ------------------ *)

let test_sim_crash_epochs () =
  let module Sim = Mdr_netsim.Sim in
  let topo = Generators.ring ~n:6 ~capacity:1.0e7 ~prop_delay:0.001 in
  let cfg =
    { Sim.default_config with sim_time = 40.0; warmup = 5.0; t_l = 4.0; t_s = 1.0 }
  in
  (* Crash the destination itself: everything sent while it is down is
     necessarily lost, so the middle epoch must show the degradation. *)
  let events =
    [ Sim.Crash_node { at = 15.0; node = 3 }; Sim.Restart_node { at = 25.0; node = 3 } ]
  in
  let r =
    Sim.run ~config:cfg ~events topo
      [ { Sim.src = 0; dst = 3; rate_bits = 5.0e5; burst = None } ]
  in
  check_int "zero loop violations through crash/restart" 0 r.loop_free_violations;
  check_int "one epoch per distinct event time plus the start" 3 (List.length r.epochs);
  (match r.epochs with
  | [ before; crashed; after ] ->
    check "epoch bounds cover the run" true
      (Float.equal before.Sim.from_ 0.0
      && Float.equal crashed.Sim.from_ 15.0
      && Float.equal after.Sim.from_ 25.0
      && Float.equal after.Sim.until_ 40.0);
    check "traffic flows before the crash" true (before.Sim.delivered > 0);
    check "traffic flows after the restart" true (after.Sim.delivered > 0);
    check "the crash epoch shows losses" true (crashed.Sim.dropped > 0);
    check "the crash epoch delivers less than the healthy one" true
      (crashed.Sim.delivered < before.Sim.delivered)
  | _ -> Alcotest.fail "unexpected epoch structure");
  check "packets still arrive overall" true (r.total_delivered > 0);
  (* Faultless runs report no epochs. *)
  let clean =
    Sim.run ~config:cfg topo [ { Sim.src = 0; dst = 3; rate_bits = 5.0e5; burst = None } ]
  in
  check_int "no events, no epochs" 0 (List.length clean.epochs)

(* --- Chaos campaigns (the >= 200-scenario property) -------------------- *)

let scenario_topo rng =
  match Rng.int rng ~bound:3 with
  | 0 ->
    let n = 6 + Rng.int rng ~bound:4 in
    Generators.ring_with_chords ~rng ~n ~chords:(2 + Rng.int rng ~bound:3)
      ~capacity:1.0e7 ~prop_delay:0.002
  | 1 ->
    let n = 6 + Rng.int rng ~bound:6 in
    Generators.random_connected ~rng ~n ~extra_links:(3 + Rng.int rng ~bound:3) ()
  | _ -> Generators.grid ~rows:3 ~cols:3 ~capacity:1.0e7 ~prop_delay:0.001

let churn_profile =
  { Campaign.default_profile with duration = 20.0 }

let test_chaos_property () =
  (* 100 seeds x {MPDA, DV} = 200 scenarios of interleaved cost
     surges, flaps, crashes, partitions and lossy channels; the
     invariants must hold after every processed event, every MPDA
     router must match its from-scratch rebuild after every event, and
     both protocols must reconverge. *)
  for seed = 1 to 100 do
    let rng = Rng.create ~seed in
    let topo = scenario_topo rng in
    let plan = Campaign.random_plan ~rng ~topo churn_profile in
    let audit (m : Campaign.metrics) =
      let tag what = Printf.sprintf "seed %d %s: %s" seed m.protocol what in
      Alcotest.(check int) (tag "loop violations") 0 m.loop_violations;
      Alcotest.(check int) (tag "lfi violations") 0 m.lfi_violations;
      Alcotest.(check int) (tag "router check failures") 0 m.check_failures;
      check (tag "converged") true m.converged;
      check (tag "bounded reconvergence") true
        (Float.is_finite m.reconvergence && m.reconvergence < 600.0)
    in
    audit (Campaign.run_mpda ~check_routers:true ~topo ~seed plan);
    audit (Campaign.run_dv ~topo ~seed plan)
  done

let test_hello_chaos_property () =
  (* The chaos property under inferred detection: failures discovered
     by dead intervals, false positives from the lossy channel, flap
     damping active — and still zero loop or LFI violations ever. *)
  for seed = 1 to 12 do
    let rng = Rng.create ~seed in
    let topo = scenario_topo rng in
    let plan =
      Campaign.random_plan ~rng ~topo
        { Campaign.default_profile with duration = 10.0 }
    in
    let detection = Harness.Hello Hello.default_params in
    let m = Campaign.run_mpda ~detection ~check_routers:true ~topo ~seed plan in
    let tag what = Printf.sprintf "hello seed %d MPDA: %s" seed what in
    Alcotest.(check int) (tag "loop violations") 0 m.loop_violations;
    Alcotest.(check int) (tag "lfi violations") 0 m.lfi_violations;
    Alcotest.(check int) (tag "router check failures") 0 m.check_failures;
    check (tag "converged") true m.converged;
    check (tag "no permanent blackhole") false m.permanent_blackhole;
    check (tag "detection produced latencies or absorbed flaps") true
      (m.detection_latencies <> [] || m.detection_absorbed > 0);
    (* DBF makes no loop-freedom promise, and inferred one-sided
       teardowns expose exactly the transient loops MPDA's
       feasible-distance pinning prevents — so DV is audited for
       recovery, not for loop-freedom. *)
    let d = Campaign.run_dv ~detection ~topo ~seed plan in
    let tag what = Printf.sprintf "hello seed %d DV: %s" seed what in
    check (tag "converged") true d.converged;
    check (tag "no permanent blackhole") false d.permanent_blackhole
  done

(* --- Overload: demand surges and the watchdog ------------------------- *)

module Overload = Mdr_faults.Overload
module Traffic = Mdr_fluid.Traffic
module Evaluate = Mdr_fluid.Evaluate
module Feasibility = Mdr_fluid.Feasibility
module Gallager = Mdr_gallager.Gallager

let test_demand_surges_end_within_window () =
  (* Every drawn demand surge must be a well-formed window that closes
     strictly inside the churn window, so reconvergence is always
     judged on restored demand. *)
  let seen = ref 0 in
  for seed = 1 to 25 do
    let rng = Rng.create ~seed in
    let topo = scenario_topo rng in
    let plan = Campaign.random_plan ~rng ~topo churn_profile in
    List.iter
      (function
        | Campaign.Demand_surge { src; dst; factor; at; until_ } ->
          incr seen;
          let tag what = Printf.sprintf "seed %d: %s" seed what in
          check (tag "distinct endpoints") true (src <> dst);
          check (tag "amplifying factor") true (factor > 1.0);
          check (tag "window ordered") true (at < until_);
          check (tag "window inside churn") true
            (at > 0.0 && until_ < plan.Campaign.duration)
        | Campaign.Flap _ | Campaign.Cost_surge _ | Campaign.Crash _
        | Campaign.Partition _ -> ())
      plan.Campaign.faults
  done;
  check "plans actually contained surges" true (!seen >= 25)

let test_demand_surge_restores_and_reconverges () =
  (* A lone demand surge: cost inflation along the commodity's path
     during the window, restoration at its close, clean reconvergence —
     and the surge must leave no residual state (the run ends quiescent
     with zero violations). *)
  let topo = Mdr_topology.Net1.topology () in
  let plan =
    {
      Campaign.faults =
        [
          Campaign.Demand_surge
            { src = 0; dst = 7; factor = 3.0; at = 2.0; until_ = 8.0 };
        ];
      channel = Channel.ideal;
      duration = 10.0;
    }
  in
  let m = Campaign.run_mpda ~topo ~seed:5 plan in
  check_int "loop violations" 0 m.Campaign.loop_violations;
  check_int "lfi violations" 0 m.Campaign.lfi_violations;
  check "converged" true m.Campaign.converged;
  check "bounded reconvergence" true
    (Float.is_finite m.Campaign.reconvergence
    && m.Campaign.reconvergence < 60.0);
  check "surge generated protocol activity" true (m.Campaign.events > 0)

let test_overload_watchdog_12_seeds () =
  (* The full watchdog across 12 seeds on NET1 pushed well past its
     envelope: zero invariant violations in every control run, finite
     costs everywhere, Degraded (never divergent) fluid status, and
     damping never increasing the successor-flap count. *)
  let topo = Mdr_topology.Net1.topology () in
  let pkt = 4096.0 in
  let base =
    Traffic.of_pairs_bits ~n:10 ~packet_size:pkt
      ~rate_bits:(fun _ -> 2.0e6)
      (Mdr_topology.Net1.flow_pairs topo)
  in
  let offered = Traffic.scale base 8.0 in
  for seed = 1 to 12 do
    let config =
      {
        Overload.default_config with
        surge_from = 2.0;
        surge_until = 8.0;
        settle_grace = 60.0;
        max_iters = 150;
        seed;
      }
    in
    let r = Overload.audit ~config ~topo ~packet_size:pkt ~base ~offered () in
    let tag what = Printf.sprintf "seed %d: %s" seed what in
    check_int (tag "undamped loop violations") 0
      r.Overload.undamped.Overload.loop_violations;
    check_int (tag "damped loop violations") 0
      r.Overload.damped.Overload.loop_violations;
    check_int (tag "undamped lfi violations") 0
      r.Overload.undamped.Overload.lfi_violations;
    check_int (tag "damped lfi violations") 0
      r.Overload.damped.Overload.lfi_violations;
    check (tag "costs finite") true r.Overload.fluid.Overload.costs_finite;
    check (tag "degraded, not divergent") true r.Overload.fluid.Overload.degraded;
    check (tag "shed reported") true
      (r.Overload.fluid.Overload.shed_fraction > 0.0);
    check (tag "both runs converged") true
      (r.Overload.undamped.Overload.converged
      && r.Overload.damped.Overload.converged);
    check (tag "damping bounds successor flaps") true
      (r.Overload.damped.Overload.successor_flaps
      <= r.Overload.undamped.Overload.successor_flaps)
  done

let test_overload_surge_acceptance_100_seeds () =
  (* Acceptance sweep: 100 seeded random (topology, demand) scenarios
     through the fluid pipeline. Every cost stays finite, and every
     infeasible matrix comes back Degraded — never a silent divergent
     solve. *)
  let degraded = ref 0 in
  for seed = 1 to 100 do
    let rng = Rng.create ~seed:(4000 + seed) in
    let topo = scenario_topo rng in
    let n = Graph.node_count topo in
    let pkt = 1000.0 in
    let model = Evaluate.model topo ~packet_size:pkt in
    let commodities = 3 + Rng.int rng ~bound:4 in
    let flows =
      List.init commodities (fun _ ->
          let src = Rng.int rng ~bound:n in
          let dst = (src + 1 + Rng.int rng ~bound:(n - 1)) mod n in
          (* Links carry 1e7 b/s = 10000 pkt/s: rates up to 30000 make
             roughly half the matrices infeasible. *)
          let rate = Rng.uniform rng ~lo:1000.0 ~hi:30000.0 in
          { Traffic.src; dst; rate })
    in
    let traffic = Traffic.of_flows ~n flows in
    let r = Gallager.solve ~max_iters:120 model topo traffic in
    let tag what = Printf.sprintf "surge seed %d: %s" seed what in
    check (tag "costs finite") true (Evaluate.costs_finite model r.Gallager.flows);
    check (tag "delay finite") true (Float.is_finite r.Gallager.avg_delay);
    let feas = Feasibility.report topo ~packet_size:pkt traffic in
    if not (Feasibility.feasible feas) then begin
      incr degraded;
      check (tag "infeasible matrix degraded") true
        (match r.Gallager.status with
        | Gallager.Degraded d ->
          d.Gallager.admitted_fraction > 0.0
          && d.Gallager.admitted_fraction < 1.0
        | Gallager.Feasible -> false)
    end
  done;
  check "sweep actually exercised infeasible matrices" true (!degraded >= 20)

let test_campaign_determinism () =
  let run () =
    let rng = Rng.create ~seed:77 in
    let topo = scenario_topo rng in
    let plan = Campaign.random_plan ~rng ~topo churn_profile in
    (Campaign.run_mpda ~topo ~seed:77 plan, Campaign.run_dv ~topo ~seed:77 plan)
  in
  check "identical metrics across runs from a fixed seed" true (run () = run ())

let suite =
  [
    Alcotest.test_case "channel: layer semantics" `Quick test_channel_semantics;
    Alcotest.test_case "channel: seeded determinism" `Quick test_channel_determinism;
    Alcotest.test_case "transport: NET1 converges at 20% drop" `Quick
      test_lossy_convergence_net1;
    Alcotest.test_case "transport: CAIRN converges at 20% drop" `Slow
      test_lossy_convergence_cairn;
    Alcotest.test_case "transport: reorder/dup storm stays clean" `Quick
      test_reordering_duplication_storm;
    Alcotest.test_case "transport: DV over a 25%-drop channel" `Quick
      test_dv_lossy_convergence;
    Alcotest.test_case "defensive: bad links raise" `Quick test_defensive_link_events;
    Alcotest.test_case "defensive: fail/restore idempotent" `Quick
      test_idempotent_fail_restore;
    Alcotest.test_case "crash/restart reconverges cleanly" `Quick
      test_crash_restart_reconverges;
    Alcotest.test_case "partition fails a cut and heals" `Quick test_partition_heals;
    Alcotest.test_case "sim: data-plane crash epochs" `Quick test_sim_crash_epochs;
    Alcotest.test_case "hello: zero-loss channel is transparent" `Quick
      test_zero_loss_channel_transparent;
    Alcotest.test_case "hello: partition heal re-forms adjacencies" `Quick
      test_hello_partition_heal_reforms_adjacencies;
    Alcotest.test_case "hello: flap damping suppresses and releases" `Quick
      test_flap_damping_suppresses;
    Alcotest.test_case "chaos: 200 scenarios, zero violations" `Slow test_chaos_property;
    Alcotest.test_case "chaos: hello detection, zero violations" `Slow
      test_hello_chaos_property;
    Alcotest.test_case "chaos: campaign is deterministic" `Quick
      test_campaign_determinism;
    Alcotest.test_case "overload: surges end within the churn window" `Quick
      test_demand_surges_end_within_window;
    Alcotest.test_case "overload: demand surge restores and reconverges" `Quick
      test_demand_surge_restores_and_reconverges;
    Alcotest.test_case "overload: watchdog clean across 12 seeds" `Slow
      test_overload_watchdog_12_seeds;
    Alcotest.test_case "overload: 100-seed surge acceptance sweep" `Slow
      test_overload_surge_acceptance_100_seeds;
  ]
