(* paper-cairn: two of the paper's CAIRN results. A round is Figure 9's
   fluid comparison (OPT by Gallager's algorithm, MP and SP by the
   two-timescale controller, load 1.0) and Figure 11's packet
   simulation (MP and SP, load 1.05, T_l = 10 s, T_s = 2 s, 60
   simulated seconds). Neither the server nor the wire runs. *)

module Graph = Mdr_topology.Graph
module Traffic = Mdr_fluid.Traffic
module Evaluate = Mdr_fluid.Evaluate
module Flows = Mdr_fluid.Flows
module Gallager = Mdr_gallager.Gallager
module Controller = Mdr_core.Controller
module Sim = Mdr_netsim.Sim

let packet_size = 4096.0
let fluid_load = 1.0
let sim_load = 1.05

(* Figure 9's envelope: fluid MP within 5% of OPT on every flow. *)
let envelope = 1.05
let min_setups = 21

(* One set-up takes about 20 us, too short to time alone: each set-up
   sample is this many set-ups, timed together. *)
let setup_batch = 1000

(* A round takes about 6.5 s on a 2-CPU x86-64 host. The run makes a
   fixed number of rounds for its budget, so the number of Sim.run
   samples does not depend on the host's speed. *)
let nominal_round_s = 6.5
let rounds_for seconds = max 1 (Float.to_int (Float.round (seconds /. nominal_round_s)))

(* The paper's flows: flow i offers load * (2 + 0.1 i) Mb/s. *)
let rate_bits load i = load *. (2.0 +. (0.1 *. float_of_int i)) *. 1.0e6

type inputs = {
  seed : int;
  topo : Graph.t;
  pairs : (int * int) list;
  traffic : Traffic.t;
  model : Evaluate.model;
  flows : Sim.flow_spec list;
}

let setup ~seed =
  let topo = Mdr_topology.Cairn.topology () in
  let pairs = Mdr_topology.Cairn.flow_pairs topo in
  let traffic =
    Traffic.of_pairs_bits ~n:(Graph.node_count topo) ~packet_size
      ~rate_bits:(rate_bits fluid_load) pairs
  in
  let model = Evaluate.model topo ~packet_size in
  let flows =
    List.mapi
      (fun i (src, dst) -> { Sim.src; dst; rate_bits = rate_bits sim_load i; burst = None })
      pairs
  in
  { seed; topo; pairs; traffic; model; flows }

let controller scheme = { Controller.scheme; rounds = 60; ts_per_tl = 8; damping = 0.5 }

let sim_config inp scheme =
  { Sim.default_config with scheme; t_l = 10.0; t_s = 2.0; sim_time = 60.0; seed = inp.seed }

let per_flow inp params flows =
  let by_pair =
    List.map
      (fun ((f : Traffic.flow), d) -> ((f.src, f.dst), d))
      (Evaluate.per_flow_delays inp.model params flows inp.traffic)
  in
  List.map (fun pair -> List.assoc pair by_pair) inp.pairs

type result = {
  opt : Gallager.result;
  mp : Controller.result;
  sp : Controller.result;
  sim_mp : Sim.result;
  sim_sp : Sim.result;
}

let check oracle inp r =
  let c = Oracle.check oracle in
  (* OPT is a lower bound up to the solver's convergence tolerance; the
     figure code allows the same 0.1%. *)
  c "fluid OPT <= MP" (r.opt.avg_delay <= r.mp.avg_delay *. 1.001);
  c "fluid MP <= SP" (r.mp.avg_delay <= r.sp.avg_delay);
  c "fluid MP within Figure 9's 1.05 envelope of OPT on every flow"
    (List.for_all2
       (fun o m -> m <= o *. envelope)
       (per_flow inp r.opt.params r.opt.flows)
       (per_flow inp r.mp.params r.mp.flows));
  c "packet MP run has no loop-free violations" (r.sim_mp.loop_free_violations = 0);
  c "packet SP run has no loop-free violations" (r.sim_sp.loop_free_violations = 0)

(* Figure 11's comparison is printed, not counted as a failure: it is a
   claim about averages, and one 60-second run can miss it without any
   output being wrong (seed 9: an MP congestion transient at t = 40 s
   lifts MP's mean to 21.2 ms against SP's 18.6 ms, loop-free
   throughout). *)
let figure11_line r =
  let ratio = r.sim_sp.avg_delay /. r.sim_mp.avg_delay in
  Report.line "sim_sp_over_mp_delay" ratio "ratio"
    (Printf.sprintf "(MP %.3f ms, SP %.3f ms; Figure 11 expects > 1%s)"
       (r.sim_mp.avg_delay *. 1e3) (r.sim_sp.avg_delay *. 1e3)
       (if ratio > 1.0 then "" else ": MISSED"))

let digest r =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "opt=%.9g mp=%.9g sp=%.9g mp_pkts=%d/%d sp_pkts=%d/%d"
          r.opt.avg_delay r.mp.avg_delay r.sp.avg_delay r.sim_mp.total_delivered
          r.sim_mp.control_messages r.sim_sp.total_delivered r.sim_sp.control_messages))

(* [sim_ns] is the MP and the SP Sim.run; the pair is one request. *)
type timing = { start_ns : int; fluid_ns : int array; sim_ns : int array; delivered : int }

(* The fluid solves take a quarter of a round, so each round repeats them
   to give their median enough samples: half before the MP packet run
   and half before the SP one, so that the samples spread over the run,
   because the host's speed moves over seconds. Every repetition must
   give the same delays. *)
let fluid_reps = 6

(* One round; with a tracer, a span wraps each call into a layer. *)
let round tr oracle inp =
  let span name f = Trace.span_opt tr name f in
  Gc.compact ();
  let t0 = Clock.now_ns () in
  let fluid () =
    let t = Clock.now_ns () in
    let opt = span "gallager.solve" (fun () -> Gallager.solve inp.model inp.topo inp.traffic) in
    let mp =
      span "controller.run.mp" (fun () ->
          Controller.run ~config:(controller Controller.Mp) inp.model inp.topo inp.traffic)
    in
    let sp =
      span "controller.run.sp" (fun () ->
          Controller.run ~config:(controller Controller.Sp) inp.model inp.topo inp.traffic)
    in
    ((opt, mp, sp), Clock.now_ns () - t)
  in
  let fluid_half () = List.init (fluid_reps / 2) (fun _ -> fluid ()) in
  let sim scheme = Sim.run ~config:(sim_config inp scheme) inp.topo inp.flows in
  let fluids_mp = fluid_half () in
  let t1 = Clock.now_ns () in
  let sim_mp = span "sim.run.mp" (fun () -> sim Sim.Mp) in
  let t2 = Clock.now_ns () in
  let fluids_sp = fluid_half () in
  let t3 = Clock.now_ns () in
  let sim_sp = span "sim.run.sp" (fun () -> sim Sim.Sp) in
  let t4 = Clock.now_ns () in
  let fluids = fluids_mp @ fluids_sp in
  let (opt, mp, sp), _ = List.hd fluids in
  let delays ((o : Gallager.result), (m : Controller.result), (s : Controller.result)) =
    [ o.avg_delay; m.avg_delay; s.avg_delay ]
  in
  Oracle.check oracle "repeated fluid solves give the same delays"
    (List.for_all
       (fun (x, _) -> List.equal Float.equal (delays x) (delays (opt, mp, sp)))
       fluids);
  let r = { opt; mp; sp; sim_mp; sim_sp } in
  check oracle inp r;
  ( r,
    {
      start_ns = t0;
      fluid_ns = Array.of_list (List.map snd fluids);
      sim_ns = [| t2 - t1; t4 - t3 |];
      delivered = sim_mp.total_delivered + sim_sp.total_delivered;
    } )

let round_ns t = Array.fold_left ( + ) 0 t.fluid_ns + Array.fold_left ( + ) 0 t.sim_ns

let run ~seed ~seconds oracle =
  let rounds = rounds_for seconds in
  let rr =
    Rounds.run ~seconds ~min_rounds:rounds ~max_rounds:rounds ~min_setups ~setup_batch
      ~setup:(fun _ -> setup ~seed)
      ~round:(fun _ inp -> round None oracle inp)
      ~timed_ns:(fun (_, t) -> round_ns t)
      ()
  in
  let rounds = List.map snd rr.results and digests = List.map (fun (r, _) -> digest r) rr.results in
  let first = Rounds.repeated_digest oracle digests in
  let fluid =
    Array.concat (List.map (fun t -> Array.map float_of_int t.fluid_ns) rounds)
  in
  let sim scheme = Array.of_list (List.map (fun t -> float_of_int t.sim_ns.(scheme)) rounds) in
  let sim_mp = sim 0 and sim_sp = sim 1 in
  let pairs = Array.map2 ( +. ) sim_mp sim_sp in
  let sim_s = Array.fold_left ( +. ) 0.0 pairs *. 1e-9 in
  let delivered = List.fold_left (fun a t -> a + t.delivered) 0 rounds in
  let setup_s = Stats.median rr.setup_s in
  let lines =
    [
      Report.line "setup_s" setup_s "s"
        (Printf.sprintf "(median, n=%d samples of %d set-ups)" (Array.length rr.setup_s)
           setup_batch);
      Report.line "fluid_s" (Stats.median fluid *. 1e-9) "s"
        (Printf.sprintf "(median, n=%d)" (Array.length fluid));
      Report.line "netsim_pkts_per_s" (float_of_int delivered /. sim_s) "1/s"
        (Printf.sprintf "(%d packets in %.3f s of Sim.run, %d MP+SP pairs)" delivered sim_s
           (Array.length pairs));
      Report.line "sim_run_mp_ms_p50" (Stats.median sim_mp *. 1e-6) "ms"
        (Printf.sprintf "(n=%d)" (Array.length sim_mp));
      Report.line "sim_run_sp_ms_p50" (Stats.median sim_sp *. 1e-6) "ms"
        (Printf.sprintf "(n=%d)" (Array.length sim_sp));
      figure11_line (fst (List.hd rr.results));
    ]
  in
  let e2e =
    {
      Report.setup_s;
      ops_per_s = float_of_int delivered /. sim_s;
      request_ms_p90 = Stats.percentile pairs 900 *. 1e-6;
      side_op_ms_p50 = Stats.median fluid *. 1e-6;
    }
  in
  (e2e, lines, first)

let flows_reps = 200

let trace ~seed oracle tr =
  let inp = setup ~seed in
  let r0, plain = round None oracle inp in
  let r, traced = round (Some tr) oracle inp in
  let sections = ref [ (traced.start_ns, traced.start_ns + round_ns traced) ] in
  (* The untraced baseline brackets the traced round, so a drift in the
     host's speed over the run does not read as tracing cost. *)
  let r1, plain_after = round None oracle inp in
  Oracle.check oracle "traced round digest equals the untraced ones"
    (String.equal (digest r0) (digest r) && String.equal (digest r0) (digest r1));
  (* Side measurement: Flows.compute on the converged OPT parameters. *)
  let s_flows = Trace.name tr "flows.compute" in
  let t0 = Clock.now_ns () in
  for i = 1 to flows_reps do
    Trace.set_run tr i;
    ignore (Trace.span tr s_flows (fun () -> Flows.compute r.opt.params inp.traffic))
  done;
  sections := (t0, Clock.now_ns ()) :: !sections;
  let sum = Trace.summarize tr in
  let s name = Clock.seconds (sum name).total_ns in
  (* Median seconds of one call: the fluid solves repeat in a round. *)
  let per_call name = Stats.median (sum name).durations_ns *. 1e-9 in
  let solve_s = per_call "gallager.solve" in
  let flows = sum "flows.compute" in
  let metrics =
    Report.
      [
        metric "gallager.solve_s" "s" solve_s;
        metric "gallager.iterations" "count" (float_of_int r.opt.iterations);
        metric "gallager.iter_ms" "ms" (solve_s *. 1e3 /. float_of_int (max 1 r.opt.iterations));
        metric "controller.mp_s" "s" (per_call "controller.run.mp");
        metric "controller.sp_s" "s" (per_call "controller.run.sp");
        metric "flows.compute_us" "us" (Stats.us_or_zero flows.durations_ns 500);
        metric "sim.run_s" "s" (s "sim.run.mp" +. s "sim.run.sp");
        metric "sim.delivered" "count"
          (float_of_int (r.sim_mp.total_delivered + r.sim_sp.total_delivered));
        metric "sim.control_messages" "count"
          (float_of_int (r.sim_mp.control_messages + r.sim_sp.control_messages));
        metric "trace.overhead_frac" "ratio"
          ((2.0 *. float_of_int (round_ns traced)
           /. float_of_int (round_ns plain + round_ns plain_after))
          -. 1.0);
        metric "trace.coverage_frac" "ratio" (Trace.coverage tr !sections);
      ]
  in
  (metrics, [ figure11_line r ], digest r0)
