(* mdrsim — command-line driver for the reproduction of "A Simple
   Approximation to Minimum-Delay Routing" (Vutukury &
   Garcia-Luna-Aceves, SIGCOMM 1999).

   Subcommands regenerate individual figures, run ad-hoc comparisons on
   the built-in topologies, or run everything. *)

module Experiments = Mdr_experiments.Experiments
module Workload = Mdr_experiments.Workload
module Json = Mdr_util.Json

open Cmdliner

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let exit_of_ok ok = if ok then 0 else 1

(* The benchmark commands' report: one Json.report record written to
   [out] and announced after a blank line. A gate is (name, ok, extra
   fields); returns whether every gate holds. *)
let write_report ~out ~benchmark ~params ~rows gates =
  let gate (name, ok, extra) = Json.(Obj (("name", String name) :: ("ok", Bool ok) :: extra)) in
  let report = Json.report ~benchmark ~params ~rows ~gates:(List.map gate gates) in
  write_file out (Json.to_string report);
  Printf.printf "\nwrote %s\n" out;
  List.for_all (fun (_, ok, _) -> ok) gates

(* Checked converters: a value outside the range is a cmdliner parse
   error, so it exits 2 before any work starts. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let pos_float =
  checked Arg.float ~expected:"a finite number > 0" (fun x -> Float.is_finite x && x > 0.0)

let nonneg_float =
  checked Arg.float ~expected:"a finite number >= 0" (fun x -> Float.is_finite x && x >= 0.0)

let unit_fraction = checked Arg.float ~expected:"a number in (0, 1]" (fun x -> x > 0.0 && x <= 1.0)
let int_from lo = checked Arg.int ~expected:(Printf.sprintf "an integer >= %d" lo) (fun n -> n >= lo)
let pos_int = int_from 1
let nonneg_int = int_from 0
let nonempty conv = checked (Arg.list conv) ~expected:"a non-empty list" (fun l -> l <> [])

(* The exit statuses every command's help lists: the contract at the
   end of this file, where cmdliner's parse errors are mapped to 2. *)
let cmd_info =
  Cmd.info
    ~exits:
      [
        Cmd.Exit.info 0 ~doc:"on success.";
        Cmd.Exit.info 1
          ~doc:"on a finding: a failed check, a lint violation or an SLO breach.";
        Cmd.Exit.info 2 ~doc:"on usage errors, command line parsing errors included.";
        Cmd.Exit.info Cmd.Exit.some_error
          ~doc:"on indiscriminate errors reported on standard error.";
        Cmd.Exit.info Cmd.Exit.internal_error ~doc:"on unexpected internal errors (bugs).";
      ]

(* The closing [NAME: PASS (...)] / [NAME: FAIL (...)] line of an audit
   command, after a blank line; returns the exit code. *)
let verdict name ok ~pass ~fail =
  Printf.printf "\n%s: %s\n" name (if ok then pass else fail);
  exit_of_ok ok

(* A topology or flow file that cannot be read or parsed is a usage
   error: one stderr line and exit 2 (the exit-code contract, at the
   end of this file). *)
let read_input_file read path =
  match read path with
  | v -> v
  | exception Mdr_topology.Parser.Parse_error { line; message } ->
    Printf.eprintf "mdrsim: %s: line %d: %s\n" path line message;
    exit 2
  | exception Sys_error reason ->
    Printf.eprintf "mdrsim: %s\n" reason;
    exit 2

let write_csv path (o : Experiments.outcome) =
  match o.series with
  | None -> Printf.eprintf "note: %s has no tabular data; no CSV written\n" o.title
  | Some series ->
    write_file path (Experiments.to_csv series);
    Printf.printf "wrote %s\n" path

let print_outcome ?csv (o : Experiments.outcome) =
  print_endline o.rendered;
  List.iter
    (fun (label, ok) ->
      Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") label)
    o.checks;
  (match csv with Some path -> write_csv path o | None -> ());
  print_newline ();
  List.for_all snd o.checks

(* The options several commands share, each with its own default and
   doc. *)
let seeds_opt default ~doc =
  Arg.(value & opt (nonempty nonneg_int) default & info [ "seeds" ] ~docv:"SEEDS" ~doc)

let seed_opt default ~doc = Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)
let updates_opt c default ~doc = Arg.(value & opt c default & info [ "updates" ] ~docv:"N" ~doc)

let load_arg ~default =
  let doc = "Load factor applied to every flow's 2-3 Mb/s nominal rate." in
  Arg.(value & opt pos_float default & info [ "load" ] ~docv:"FACTOR" ~doc)

let seeds_arg = seeds_opt [ 1; 2; 3 ] ~doc:"Comma-separated simulation seeds; results are averaged."

let topo_arg =
  let doc = "Topology: cairn or net1." in
  Arg.(value & opt (enum [ ("cairn", `Cairn); ("net1", `Net1) ]) `Cairn
       & info [ "topology"; "t" ] ~docv:"NAME" ~doc)

let workload topo ~load =
  match topo with `Cairn -> Workload.cairn ~load | `Net1 -> Workload.net1 ~load

let csv_arg =
  let doc = "Also write the figure's data as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let simple_cmd name ~doc f =
  let run csv = exit_of_ok (print_outcome ?csv (f ())) in
  Cmd.v (cmd_info name ~doc) Term.(const run $ csv_arg)

let loaded_cmd name ~doc ~default
    (f : ?load:float -> ?seeds:int list -> unit -> Experiments.outcome) =
  let run load seeds csv = exit_of_ok (print_outcome ?csv (f ~load ~seeds ())) in
  Cmd.v (cmd_info name ~doc)
    Term.(const run $ load_arg ~default $ seeds_arg $ csv_arg)

let fluid_cmd name ~doc (f : ?load:float -> unit -> Experiments.outcome) =
  let run load csv = exit_of_ok (print_outcome ?csv (f ~load ())) in
  Cmd.v (cmd_info name ~doc) Term.(const run $ load_arg ~default:1.0 $ csv_arg)

let topology_cmd =
  simple_cmd "topology" ~doc:"Print both topologies and their metrics (Figure 8)."
    Experiments.fig8_topologies

let all_cmd =
  let csv_dir_arg =
    let doc = "Write every figure's data as CSV files into $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv-dir" ] ~docv:"DIR" ~doc)
  in
  let run csv_dir =
    (match csv_dir with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | Some _ | None -> ());
    let ok =
      List.fold_left
        (fun acc (id, f) ->
          let csv = Option.map (fun dir -> Filename.concat dir (id ^ ".csv")) csv_dir in
          print_outcome ?csv (f ()) && acc)
        true (Experiments.all ())
    in
    exit_of_ok ok
  in
  Cmd.v
    (cmd_info "all" ~doc:"Run every experiment (the full evaluation; minutes).")
    Term.(const run $ csv_dir_arg)

(* OPT's fluid bound against the seed-averaged MP and SP packet delays,
   each run with [config]'s scheme and seed replaced; prints the table
   under [title] and exits 0. *)
let three_way ~title ~(opt : Mdr_gallager.Gallager.result) ~config topo flows seeds =
  let module Sim = Mdr_netsim.Sim in
  let avg scheme =
    Mdr_util.Stats.mean_of_list
      (List.map
         (fun seed -> (Sim.run ~config:{ config with Sim.scheme; seed } topo flows).Sim.avg_delay)
         seeds)
  in
  let mp = avg Sim.Mp and sp = avg Sim.Sp in
  Printf.printf
    "%s (%d-seed means):\n  OPT (fluid bound) %8.3f ms\n  MP  (measured)    %8.3f ms\n  SP  (measured)    %8.3f ms   (x%.2f vs MP)\n"
    title (List.length seeds) (1000.0 *. opt.avg_delay) (1000.0 *. mp) (1000.0 *. sp) (sp /. mp);
  0

let compare_cmd =
  (* Ad-hoc three-way comparison on a chosen topology and load. *)
  let run topo load seeds =
    let w = workload topo ~load in
    let opt = Mdr_gallager.Gallager.solve (Workload.model w) w.Workload.topo (Workload.traffic w) in
    three_way
      ~title:(Printf.sprintf "%s at load %.2f" w.Workload.name load)
      ~opt
      ~config:{ Mdr_netsim.Sim.default_config with sim_time = 80.0; warmup = 20.0 }
      w.Workload.topo (Workload.sim_flows w) seeds
  in
  Cmd.v
    (cmd_info "compare" ~doc:"Compare OPT/MP/SP average delays on one topology.")
    Term.(const run $ topo_arg $ load_arg ~default:1.0 $ seeds_arg)

let routes_cmd =
  (* Dump the converged MP routing table: per (router, destination),
     the loop-free successor set with its traffic fractions. *)
  let node_arg =
    let doc = "Only print entries for this router (by name)." in
    Arg.(value & opt (some string) None & info [ "router"; "r" ] ~docv:"NAME" ~doc)
  in
  let run topo load node_filter =
    let w = workload topo ~load in
    let module Graph = Mdr_topology.Graph in
    let module Fluid = Mdr_fluid in
    let g = w.Workload.topo in
    let mp =
      Mdr_core.Controller.run
        ~config:{ Mdr_core.Controller.scheme = Mp; rounds = 40; ts_per_tl = 5; damping = 0.5 }
        (Workload.model w) g (Workload.traffic w)
    in
    let keep node =
      match node_filter with
      | None -> true
      | Some name -> ( try Graph.node_of_name g name = node with Not_found -> false)
    in
    let n = Graph.node_count g in
    Printf.printf "%s MP routing table at load %.2f (converged fluid state):\n\n"
      w.Workload.name load;
    for node = 0 to n - 1 do
      if keep node then
        for dst = 0 to n - 1 do
          if node <> dst then begin
            match Fluid.Params.fractions mp.params ~node ~dst with
            | [] -> ()
            | entries ->
              Printf.printf "  %-10s -> %-10s via %s\n" (Graph.name g node)
                (Graph.name g dst)
                (String.concat ", "
                   (List.map
                      (fun (k, f) ->
                        Printf.sprintf "%s (%.0f%%)" (Graph.name g k) (100.0 *. f))
                      entries))
          end
        done
    done;
    0
  in
  Cmd.v
    (cmd_info "routes" ~doc:"Print the converged MP multipath routing table.")
    Term.(const run $ topo_arg $ load_arg ~default:1.0 $ node_arg)

let custom_cmd =
  (* Run the full three-way comparison on a user-supplied topology and
     flow set. *)
  let topo_file =
    Arg.(required & opt (some string) None
         & info [ "topo" ] ~docv:"FILE" ~doc:"Topology file (see Mdr_topology.Parser).")
  in
  let flow_file =
    Arg.(required & opt (some string) None
         & info [ "flows" ] ~docv:"FILE" ~doc:"Flow file: 'flow <src> <dst> <mbps>' lines.")
  in
  let damping_arg =
    let doc =
      "AH damping in (0,1]. 1.0 is the paper's full step (which flip-flops on \
       perfectly symmetric two-path splits); 0.5 smooths such cases."
    in
    Arg.(value & opt unit_fraction 1.0 & info [ "damping" ] ~docv:"D" ~doc)
  in
  let run topo_path flow_path seeds damping =
    let module Graph = Mdr_topology.Graph in
    let module Parser = Mdr_topology.Parser in
    let module Sim = Mdr_netsim.Sim in
    let g = read_input_file Parser.topology_of_file topo_path in
    let flows = read_input_file (Parser.flows_of_file g) flow_path in
    if flows = [] then begin
      Printf.eprintf "custom: no flows in %s\n" flow_path;
      2
    end
    else begin
      let specs =
        List.map (fun (src, dst, rate_bits) -> { Sim.src; dst; rate_bits; burst = None }) flows
      in
      let pkt = Mdr_experiments.Workload.packet_size in
      let traffic =
        Mdr_fluid.Traffic.of_flows ~n:(Graph.node_count g)
          (List.map
             (fun (src, dst, rate_bits) ->
               { Mdr_fluid.Traffic.src; dst; rate = rate_bits /. pkt })
             flows)
      in
      let model = Mdr_fluid.Evaluate.model g ~packet_size:pkt in
      three_way
        ~title:
          (Printf.sprintf "%d routers, %d links, %d flows" (Graph.node_count g)
             (Graph.link_count g) (List.length flows))
        ~opt:(Mdr_gallager.Gallager.solve model g traffic)
        ~config:{ Sim.default_config with sim_time = 60.0; warmup = 15.0; damping }
        g specs seeds
    end
  in
  Cmd.v
    (cmd_info "custom"
       ~doc:"Compare OPT/MP/SP on a user-supplied topology and flow set.")
    Term.(const run $ topo_file $ flow_file $ seeds_arg $ damping_arg)

(* The chaos/perfbench scenario rotation: the paper's topologies
   interleaved with generated structure, so campaigns cover both fixed
   and random graphs. *)
let rotating_topo i rng =
  let module Rng = Mdr_util.Rng in
  let module Generators = Mdr_topology.Generators in
  match i mod 4 with
  | 0 -> Mdr_topology.Cairn.topology ()
  | 1 -> Mdr_topology.Net1.topology ()
  | 2 ->
    Generators.ring_with_chords ~rng ~n:(6 + Rng.int rng ~bound:7)
      ~chords:(2 + Rng.int rng ~bound:3) ~capacity:1.0e7 ~prop_delay:0.002
  | _ ->
    Generators.random_connected ~rng ~n:(6 + Rng.int rng ~bound:7)
      ~extra_links:(3 + Rng.int rng ~bound:4) ()

let chaos_cmd =
  (* Randomized fault-injection campaign: every scenario draws a fault
     schedule (lossy channels, flaps, cost surges, crashes, one
     partition/heal) and runs MPDA and DV against it, auditing
     loop-freedom and the LFI conditions after every processed event.
     The whole campaign is a deterministic function of --seed. *)
  let module Campaign = Mdr_faults.Campaign in
  let seed_arg = seed_opt 1 ~doc:"Master seed; the campaign replays exactly from it." in
  let scenarios_arg =
    let doc = "Number of randomized fault scenarios (each runs MPDA and DV)." in
    Arg.(value & opt pos_int 200 & info [ "scenarios" ] ~docv:"N" ~doc)
  in
  let duration_arg =
    let doc = "Simulated seconds of churn per scenario." in
    Arg.(value & opt pos_float 30.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let detection_arg =
    let doc =
      "Failure detection: $(b,oracle) (link events delivered instantly, the \
       paper's model) or $(b,hello) (inferred from missed hellos, with flap \
       damping)."
    in
    Arg.(
      value
      & opt (enum [ ("oracle", `Oracle); ("hello", `Hello) ]) `Oracle
      & info [ "detection" ] ~docv:"MODE" ~doc)
  in
  let run seed scenarios duration detection_mode =
    let hello = detection_mode = `Hello in
    let detection =
      match detection_mode with
      | `Oracle -> Mdr_routing.Harness.Oracle
      | `Hello -> Mdr_routing.Harness.Hello Mdr_routing.Hello.default_params
    in
    let profile = { Campaign.default_profile with duration } in
    Printf.printf
      "chaos: %d scenarios x {MPDA, DV}, %.0f s of churn each, seed %d, %s detection\n\n"
      scenarios duration seed
      (if hello then "hello" else "oracle");
    (* Scenario fan-out: MDR_JOBS > 1 spreads the grid over domains;
       results come back in scenario order either way. *)
    let results =
      Campaign.run_campaign ~detection ~profile ~topo_of:rotating_topo ~seed
        ~scenarios ()
    in
    let mpda = List.map fst (Array.to_list results)
    and dv = List.map snd (Array.to_list results) in
    print_string (Campaign.summary_table [ ("MPDA", mpda); ("DV", dv) ]);
    print_newline ();
    if hello then begin
      (* Recovery SLOs only exist when failures must be inferred:
         under the oracle every detection latency is 0 by fiat. *)
      Printf.printf "MPDA recovery SLOs (hello detection):\n";
      print_string (Campaign.slo_table mpda);
      print_newline ();
      let sum f = List.fold_left (fun acc (m : Campaign.metrics) -> acc + f m) 0 mpda in
      Printf.printf
        "  %d hellos sent; %d failures absorbed before detection; %d false positives\n\n"
        (sum (fun m -> m.hellos))
        (sum (fun m -> m.detection_absorbed))
        (sum (fun m -> m.detection_false_positives));
      let d = Campaign.damping_demo ~topo:(Mdr_topology.Cairn.topology ()) ~seed () in
      Printf.printf
        "flap damping (CAIRN, 6 flaps): ACTIVE phases %d undamped -> %d damped \
         (x%.2f); detected flaps %d -> %d; suppression engaged: %b\n\n"
        d.Campaign.active_phases_undamped d.Campaign.active_phases_damped
        (float_of_int d.Campaign.active_phases_undamped
        /. float_of_int (max 1 d.Campaign.active_phases_damped))
        d.Campaign.detected_flaps_undamped d.Campaign.detected_flaps_damped
        d.Campaign.suppressed_during_flaps
    end;
    (* Transport proof: at 20% drop the converged routes must equal
       the lossless ones — loss costs retransmissions, not routes. *)
    let agreement =
      List.for_all
        (fun (name, topo) ->
          let same, retx = Campaign.successor_agreement ~topo ~seed () in
          Printf.printf
            "  [%s] %s: successor sets at 20%% drop %s lossless (retransmissions: %d)\n"
            (if same then "PASS" else "FAIL")
            name
            (if same then "match" else "DIFFER from")
            retx;
          same)
        [ ("CAIRN", Mdr_topology.Cairn.topology ()); ("NET1", Mdr_topology.Net1.topology ()) ]
    in
    let clean (m : Campaign.metrics) =
      m.loop_violations = 0 && m.lfi_violations = 0 && m.converged
      && not m.permanent_blackhole
    in
    (* DBF carries no loop-freedom invariant: when a failure is
       inferred on one side only, the window before the peer's own
       detector fires can transiently loop its successor graph —
       the very window MPDA's feasible-distance pinning closes. So
       under hello detection DV is held to convergence and
       no-permanent-blackhole; MPDA is held to the full bar. *)
    let clean_dv (m : Campaign.metrics) =
      if hello then m.converged && not m.permanent_blackhole else clean m
    in
    if hello then begin
      let dv_loops =
        List.fold_left (fun acc m -> acc + m.Campaign.loop_violations) 0 dv
      in
      if dv_loops > 0 then
        Printf.printf
          "  note: DV showed %d transient loop(s) — DBF has no loop-freedom \
           guarantee under inferred failures (MPDA is held to zero)\n"
          dv_loops
    end;
    let ok = agreement && List.for_all clean mpda && List.for_all clean_dv dv in
    Printf.printf "\n  [%s] %d scenarios: %s\n"
      (if ok then "PASS" else "FAIL")
      scenarios
      (if ok then "zero violations, all runs reconverged, no permanent blackholes"
       else
         "violations, failed reconvergence or a permanent blackhole — see the \
          table above");
    exit_of_ok ok
  in
  Cmd.v
    (cmd_info "chaos"
       ~doc:"Randomized fault-injection audit of MPDA and DV (loop-freedom + LFI).")
    Term.(const run $ seed_arg $ scenarios_arg $ duration_arg $ detection_arg)

let overload_cmd =
  (* Overload-SLO watchdog: push a workload to chosen multiples of its
     feasible envelope and audit both halves of the pipeline — the
     fluid solver must shed (never silently mis-solve), costs must stay
     finite past the knee, and the MPDA control plane must survive the
     resulting cost churn invariant-clean, with damping measurably
     cutting successor flaps. *)
  let module Overload = Mdr_faults.Overload in
  let module Traffic = Mdr_fluid.Traffic in
  let module Feasibility = Mdr_fluid.Feasibility in
  let loads_arg =
    let doc =
      "Comma-separated load multipliers, as fractions of the topology's \
       feasible envelope (1.0 = the largest uniformly scaled load the \
       min-cut admits)."
    in
    Arg.(value & opt (nonempty pos_float) [ 0.8; 1.0; 1.2; 1.5 ]
         & info [ "loads" ] ~docv:"MULTS" ~doc)
  in
  let seed_arg = seed_opt 1 ~doc:"Seed for the control-plane runs." in
  let run topo loads seed =
    let w = workload topo ~load:1.0 in
    let base = Workload.traffic w in
    let packet_size = Workload.packet_size in
    (* Admissible fractions are capped at 1, so probe at a certainly
       infeasible load and scale back to recover the envelope. *)
    let probe = 32.0 in
    let frac_probe =
      (Feasibility.report w.Workload.topo ~packet_size
         (Traffic.scale base probe))
        .Feasibility.fraction
    in
    let envelope = probe *. frac_probe in
    Printf.printf
      "%s feasible envelope: %.2fx the base workload; auditing %s of it\n\n"
      w.Workload.name envelope
      (String.concat ", " (List.map (fun m -> Printf.sprintf "%.2fx" m) loads));
    let config = { Overload.default_config with seed } in
    let reports =
      Overload.audit_batch ~config ~topo:w.Workload.topo ~packet_size ~base
        (List.map (fun mult -> Traffic.scale base (mult *. envelope)) loads)
    in
    let rows =
      List.map2 (fun mult r -> (Printf.sprintf "%.2fx" mult, r)) loads reports
    in
    print_string (Overload.table rows);
    print_newline ();
    print_string (Overload.slo_table rows);
    print_newline ();
    let clean (r : Overload.report) =
      r.fluid.costs_finite
      && List.for_all
           (fun (c : Overload.control_slo) ->
             c.loop_violations = 0 && c.lfi_violations = 0 && c.converged)
           [ r.undamped; r.damped ]
    in
    let checks =
      List.map2
        (fun mult (label, r) ->
          let ok =
            clean r && (mult <= 1.0 || r.Overload.fluid.Overload.degraded)
          in
          Printf.printf "  [%s] %s: %s\n"
            (if ok then "PASS" else "FAIL")
            label
            (if not (clean r) then
               "non-finite costs, invariant violations or failed quiescence"
             else if mult > 1.0 then "degraded gracefully (demand shed, reported)"
             else "clean");
          ok)
        loads rows
    in
    exit_of_ok (List.for_all Fun.id checks)
  in
  Cmd.v
    (cmd_info "overload"
       ~doc:
         "Overload-SLO audit: shedding, cost finiteness and control-plane \
          stability past the feasible envelope.")
    Term.(const run $ topo_arg $ loads_arg $ seed_arg)

(* Shared plumbing for the two static-analysis commands. Exit codes:
   0 clean, 1 unallowlisted findings or stale allowlist entries, 2 on
   usage/parse errors. *)
let analysis_cmd ~name ~doc ~make_report =
  let module Report = Mdr_analysis.Report in
  let module Source_walk = Mdr_analysis.Source_walk in
  let json_arg =
    let doc = "Emit the machine-readable JSON report." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let sarif_arg =
    let doc = "Also write a SARIF 2.1.0 report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)
  in
  let root_arg =
    let doc = "Repo root (default: nearest ancestor with dune-project)." in
    Arg.(value & opt (some string) None & info [ "root" ] ~docv:"DIR" ~doc)
  in
  let run json sarif root =
    match
      match root with
      | Some r -> Some r
      | None -> Source_walk.find_root (Sys.getcwd ())
    with
    | None ->
      Printf.eprintf "%s: cannot find the repo root (no dune-project upward of cwd)\n"
        name;
      2
    | Some root -> (
      try
        let report : Report.t = make_report ~root in
        Option.iter (fun f -> write_file f (Report.to_sarif report)) sarif;
        print_string (if json then Report.to_json report else Report.render report);
        if Report.clean report then 0 else 1
      with Source_walk.Parse_failure { file; message } ->
        Printf.eprintf "%s: cannot parse %s: %s\n" name file message;
        2)
  in
  Cmd.v (cmd_info name ~doc) Term.(const run $ json_arg $ sarif_arg $ root_arg)

let lint_cmd =
  (* Per-file static analysis over the repo's own sources: float
     equality, nondeterministic Hashtbl iteration in protocol code,
     catch-all handlers, Obj.magic, stdout printing in libraries. *)
  let module Lint = Mdr_analysis.Lint_rules in
  analysis_cmd ~name:"lint"
    ~doc:
      "Run the per-file static-analysis rules over lib/, bin/, examples/ and \
       test/."
    ~make_report:(fun ~root -> Lint.to_report (Lint.run ~root ()))

let check_cmd =
  (* Whole-program effect analysis: domain-race lint on Pool task
     closures, determinism taint into fingerprint/digest/encode sinks,
     crash-safety of the server journal/snapshot write paths. *)
  let module Check = Mdr_analysis.Check_rules in
  analysis_cmd ~name:"check"
    ~doc:
      "Run the whole-program effect rules: domain races in Pool tasks, \
       determinism taint into fingerprints, crash-safety of server write \
       paths."
    ~make_report:(fun ~root -> Check.run ~root ())

let verify_cmd =
  (* Model checking + determinism sanitizing: enumerate all MPDA
     message interleavings on the bundled small topologies, then run
     the seeded pipelines twice and compare trace hashes. *)
  let module Interleave = Mdr_analysis.Interleave in
  let module Determinism = Mdr_analysis.Determinism in
  let max_states_arg =
    let doc = "Per-scenario state cap for the interleaving checker." in
    Arg.(value & opt pos_int 30_000 & info [ "max-states" ] ~docv:"N" ~doc)
  in
  let seed_arg = seed_opt 7 ~doc:"Seed for the determinism checks." in
  let skip_det_arg =
    let doc = "Skip the determinism sanitizer (interleaving checker only)." in
    Arg.(value & flag & info [ "no-determinism" ] ~doc)
  in
  let run max_states seed skip_det =
    print_endline "interleaving checker (all orderings of in-flight MPDA messages):";
    let scenarios = Interleave.bundled ~max_states () in
    let stats = Interleave.explore_all scenarios in
    List.iter (fun st -> print_endline ("  " ^ Interleave.render_stats st)) stats;
    let total = List.fold_left (fun acc st -> acc + st.Interleave.states) 0 stats in
    Printf.printf "  total: %d states\n" total;
    List.iter2
      (fun sc st ->
        match st.Interleave.violation with
        | Some v -> print_string (Interleave.render_trace sc.Interleave.topo v)
        | None -> ())
      scenarios stats;
    let interleave_ok =
      List.for_all (fun st -> st.Interleave.violation = None) stats
    in
    let det_ok =
      if skip_det then true
      else begin
        print_endline "\ndeterminism sanitizer (double-run trace hashes):";
        let outcomes = Determinism.run_all ~seed () in
        List.iter (fun o -> print_endline ("  " ^ Determinism.render o)) outcomes;
        Determinism.all_deterministic outcomes
      end
    in
    verdict "verify" (interleave_ok && det_ok) ~pass:"PASS" ~fail:"FAIL"
  in
  Cmd.v
    (cmd_info "verify"
       ~doc:
         "Model-check MPDA message interleavings and sanitize experiment determinism.")
    Term.(const run $ max_states_arg $ seed_arg $ skip_det_arg)

let out_arg default =
  let doc = "Where to write the JSON report." in
  Arg.(value & opt string default & info [ "out" ] ~docv:"FILE" ~doc)

(* Domains for the benchmark commands' parallel pass: MDR_JOBS, at
   least 2. *)
let par_jobs () = Stdlib.max 2 (Mdr_util.Pool.default_jobs ())

type 'a passes = {
  result : 'a;  (* the sequential pass's *)
  seq_s : float;
  par_s : float;
  md5_seq : string;
  md5_par : string;
}

(* The sequential-vs-parallel determinism gate of perfbench and scale:
   [run ~jobs ~now] once on one domain with the wall clock, then over
   MDR_JOBS domains (at least 2) with a constant clock, so no pool task
   reads the time. Each pass is timed as a whole; the gate is equality
   of the two results' digests. *)
let digest_passes ~digest run =
  let timed jobs now =
    let t0 = Unix.gettimeofday () in
    let r = run ~jobs ~now in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq, seq_s = timed 1 Unix.gettimeofday in
  let par, par_s = timed (par_jobs ()) (fun () -> 0.0) in
  { result = seq; seq_s; par_s; md5_seq = digest seq; md5_par = digest par }

let identical p = String.equal p.md5_seq p.md5_par

let digest_gate name p =
  (name, identical p, Json.[ ("md5_sequential", String p.md5_seq); ("md5_parallel", String p.md5_par) ])

let perfbench_cmd =
  (* Parallel-speedup benchmark: run the chaos-campaign grid and the
     interleaving sweep once sequentially and once over a domain pool,
     assert the trace digests match, and emit BENCH_perfbench.json.
     Digest equality is the gate — bit-identical results at any job
     count; the speedup itself is recorded, not gated, because it
     depends on how many cores the machine actually has. *)
  let module Campaign = Mdr_faults.Campaign in
  let module Interleave = Mdr_analysis.Interleave in
  let quick_arg =
    let doc = "Small preset (6 scenarios, 8 s churn, 4000-state cap) for CI." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let seed_arg = seed_opt 7 ~doc:"Master seed for the chaos campaign." in
  let run quick seed out =
    let jobs = par_jobs () in
    let scenarios = if quick then 6 else 24 in
    let duration = if quick then 8.0 else 20.0 in
    let max_states = if quick then 4_000 else 30_000 in
    let profile = { Campaign.default_profile with Campaign.duration } in
    let iscens = Interleave.bundled ~max_states () in
    Printf.printf
      "perfbench: %d chaos scenarios x {MPDA, DV} (%.0f s churn) + %d \
       interleave scenarios (cap %d); 1 vs %d domains\n\n"
      scenarios duration (List.length iscens) max_states jobs;
    (* One workload's row and gate. *)
    let workload name ~digest run =
      let p = digest_passes ~digest run in
      Printf.printf "  %-17s seq %7.2f s  %d-domain %7.2f s  speedup x%.2f  md5 %s [%s]\n"
        name p.seq_s jobs p.par_s (p.seq_s /. p.par_s) p.md5_seq
        (if identical p then "match" else "MISMATCH: " ^ p.md5_par);
      ( Json.(
          Obj
            [ ("workload", String name); ("sequential_s", Float p.seq_s);
              ("parallel_s", Float p.par_s); ("speedup", Float (p.seq_s /. p.par_s)) ]),
        digest_gate (name ^ ": parallel digest = sequential") p )
    in
    let chaos_row, chaos_gate =
      workload "chaos-campaign" ~digest:Campaign.digest (fun ~jobs ~now:_ ->
          Campaign.run_campaign ~jobs ~profile ~topo_of:rotating_topo ~seed ~scenarios ())
    in
    let sweep_row, sweep_gate =
      workload "interleave-sweep"
        ~digest:(fun stats ->
          Digest.to_hex
            (Digest.string (String.concat "\n" (List.map Interleave.render_stats stats))))
        (fun ~jobs ~now:_ -> Interleave.explore_all ~jobs iscens)
    in
    let ok =
      write_report ~out ~benchmark:"perfbench"
        ~params:Json.[ ("quick", Bool quick); ("seed", Int seed); ("parallel_domains", Int jobs) ]
        ~rows:[ chaos_row; sweep_row ] [ chaos_gate; sweep_gate ]
    in
    verdict "perfbench" ok
      ~pass:"PASS (parallel digests match sequential)"
      ~fail:"FAIL (parallel trace diverged from sequential)"
  in
  Cmd.v
    (cmd_info "perfbench"
       ~doc:
         "Time sequential vs multi-domain execution and assert bit-identical \
          traces.")
    Term.(const run $ quick_arg $ seed_arg $ out_arg "BENCH_perfbench.json")

(* ---- internet-scale SPF benchmark --------------------------------- *)

(* One benchmark cell = (generator, target size, seed). The row keeps
   the correctness fields (bit-equality vs full Dijkstra, convergence
   exactness, message counts) separate from the timings so that a
   Pool-parallel rerun — which must not read the wall clock inside a
   task — can reproduce the sequential correctness digest bit for
   bit. *)
type scale_row = {
  sr_gen : string;
  sr_target : int;
  sr_n : int;  (* actual node count (hierarchical rounds down) *)
  sr_seed : int;
  sr_changes : int;
  sr_incr_s : float;  (* summed per-LSU incremental repair time *)
  sr_full_s : float;  (* summed per-LSU from-scratch Dijkstra time *)
  sr_repairs : int;
  sr_fallbacks : int;
  sr_equal : bool;  (* every repair bit-identical to full recompute *)
  (* (messages, seconds, exact, reconverge messages, spf repairs) *)
  sr_conv : (int * float * bool * int * int) option;
  sr_digest : string;  (* md5 over the correctness fields only *)
}

let scale_cmd =
  (* Per-LSU incremental-repair cost vs from-scratch Dijkstra on
     BA / Waxman / hierarchical topologies up to 10k nodes, plus full
     MPDA convergence (message counts, exact distance check) on the
     sizes where n from-scratch Dijkstras per check are still cheap.
     Every repair is bit-compared against a full recompute; the
     Pool-parallel rerun must reproduce the sequential digest. *)
  let module Pool = Mdr_util.Pool in
  let module Rng = Mdr_util.Rng in
  let module Graph = Mdr_topology.Graph in
  let module Generators = Mdr_topology.Generators in
  let module Topo_table = Mdr_routing.Topo_table in
  let module Dijkstra = Mdr_routing.Dijkstra in
  let module Incr_spf = Mdr_routing.Incr_spf in
  let module Syncnet = Mdr_routing.Syncnet in
  (* Dyadic cost grid (multiples of 0.25 in [0.25, 8]): distinct path
     costs are exactly equal or well separated, so the incremental
     equivalence contract applies with no tolerance caveats. *)
  let draw_cost rng = 0.25 *. float_of_int (1 + Rng.int rng ~bound:32) in
  let make_topo gen n rng =
    match gen with
    | "ba" -> Generators.barabasi_albert ~rng ~n ~m:2 ()
    | "waxman" ->
        (* Shrink the reach radius with n to keep mean degree ~7
           instead of letting density grow linearly with n. *)
        let alpha = Float.sqrt (1.5 /. float_of_int n) in
        Generators.waxman ~rng ~n ~alpha ()
    | "hier" ->
        let b = int_of_float (Float.sqrt (float_of_int n)) in
        let areas = Stdlib.max 1 ((n - b) / b) in
        Generators.hierarchical ~rng ~areas ~area_size:b ~backbone:b ()
    | _ -> invalid_arg "scale: unknown generator"
  in
  (* [now] is the only impurity: Unix.gettimeofday sequentially, a
     constant inside pool tasks, so timing never leaks into the digest
     and the parallel pass stays wall-clock-free. *)
  let run_cell ~now ~conv_max (gen, target, seed, index) =
    let rng = Rng.substream ~seed ~index in
    let topo = make_topo gen target rng in
    let n = Graph.node_count topo in
    let table = Topo_table.create () in
    List.iter
      (fun (l : Graph.link) -> Topo_table.set table ~head:l.src ~tail:l.dst ~cost:(draw_cost rng))
      (Graph.links topo);
    let conv_table = Topo_table.copy table in
    let links = Array.of_list (Graph.links topo) in
    let redraw rng cur =
      let c = ref (draw_cost rng) in
      while Float.equal !c cur do c := draw_cost rng done;
      !c
    in
    (* Engine bench: k single-link cost changes, each repaired
       incrementally and cross-checked against a from-scratch run. *)
    let k = if target >= 5000 then 20 else 50 in
    let iws = Incr_spf.workspace () in
    let st = Incr_spf.create ~n ~root:0 in
    Incr_spf.full iws st table;
    let dws = Dijkstra.workspace () in
    let sdist = Array.make n infinity and sparent = Array.make n (-1) in
    let incr_s = ref 0.0 and full_s = ref 0.0 in
    let equal = ref true in
    for _i = 1 to k do
      let l = links.(Rng.int rng ~bound:(Array.length links)) in
      let head = l.Graph.src and tail = l.Graph.dst in
      let cost = redraw rng (Option.value ~default:infinity (Topo_table.cost table ~head ~tail)) in
      Topo_table.set table ~head ~tail ~cost;
      let t0 = now () in
      ignore (Incr_spf.update iws st table ~changes:[ { Topo_table.head; tail; cost } ]);
      incr_s := !incr_s +. (now () -. t0);
      let t1 = now () in
      Dijkstra.on_table_into dws ~n ~root:0 ~dist:sdist ~parent:sparent table;
      full_s := !full_s +. (now () -. t1);
      for j = 0 to n - 1 do
        if
          (not (Float.equal st.Incr_spf.dist.(j) sdist.(j)))
          || st.Incr_spf.parent.(j) <> sparent.(j)
        then equal := false
      done
    done;
    let s = Incr_spf.stats st in
    (* Convergence bench: bring up a full MPDA network, pump to
       quiescence, check every router's distances exactly, then
       reconverge after one link-cost change. *)
    let conv =
      if n > conv_max then None
      else begin
        let cost_of ~head ~tail = Option.get (Topo_table.cost conv_table ~head ~tail) in
        let t0 = now () in
        let net =
          Syncnet.create ~topo ~cost:(fun (l : Graph.link) -> cost_of ~head:l.src ~tail:l.dst) ()
        in
        let completed = Syncnet.run ~max_messages:5_000_000 net in
        let secs = now () -. t0 in
        let msgs = Syncnet.messages_delivered net in
        let exact0 =
          completed && Syncnet.quiescent net
          && Syncnet.check_distances net conv_table
        in
        let l = links.(Rng.int rng ~bound:(Array.length links)) in
        let head = l.Graph.src and tail = l.Graph.dst in
        let c = redraw rng (cost_of ~head ~tail) in
        Topo_table.set conv_table ~head ~tail ~cost:c;
        Syncnet.change_link_cost net ~src:head ~dst:tail ~cost:c;
        let completed2 = Syncnet.run ~max_messages:5_000_000 net in
        let reconv = Syncnet.messages_delivered net - msgs in
        let exact =
          exact0 && completed2 && Syncnet.quiescent net
          && Syncnet.check_distances net conv_table
        in
        let _, conv_repairs, _ = Syncnet.spf_totals net in
        Some (msgs, secs, exact, reconv, conv_repairs)
      end
    in
    let digest =
      let b = Buffer.create (32 * n) in
      Printf.bprintf b "%s/%d/%d k=%d rep=%d fb=%d eq=%b|" gen n seed k
        s.Incr_spf.repairs s.Incr_spf.fallbacks !equal;
      for j = 0 to n - 1 do
        Printf.bprintf b "%h,%d;" st.Incr_spf.dist.(j) st.Incr_spf.parent.(j)
      done;
      (match conv with
      | None -> Buffer.add_string b "|noconv"
      | Some (m, _, ex, rc, rp) ->
          Printf.bprintf b "|conv=%d,%b,%d,%d" m ex rc rp);
      Digest.to_hex (Digest.string (Buffer.contents b))
    in
    {
      sr_gen = gen;
      sr_target = target;
      sr_n = n;
      sr_seed = seed;
      sr_changes = k;
      sr_incr_s = !incr_s;
      sr_full_s = !full_s;
      sr_repairs = s.Incr_spf.repairs;
      sr_fallbacks = s.Incr_spf.fallbacks;
      sr_equal = !equal;
      sr_conv = conv;
      sr_digest = digest;
    }
  in
  let quick_arg =
    let doc = "Small preset (n in {100, 1000}) for CI." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let conv_max_arg =
    let doc =
      "Run the MPDA convergence bench only on cells with at most $(docv) \
       routers (the exact check costs n from-scratch Dijkstras)."
    in
    Arg.(value & opt nonneg_int 1000 & info [ "conv-max" ] ~docv:"N" ~doc)
  in
  let per_lsu r =
    let us s = s /. float_of_int r.sr_changes *. 1e6 in
    (us r.sr_incr_s, us r.sr_full_s)
  in
  let print_row r =
    let per_incr, per_full = per_lsu r in
    Printf.printf
      "  %-6s n=%5d seed=%d  per-LSU incr %9.1f us  full %9.1f us  \
       speedup x%7.1f  rep/fb %3d/%d  [%s]\n%!"
      r.sr_gen r.sr_n r.sr_seed per_incr per_full
      (per_full /. per_incr) r.sr_repairs r.sr_fallbacks
      (if r.sr_equal then "exact" else "MISMATCH");
    (match r.sr_conv with
    | None -> ()
    | Some (m, s, ex, rc, rp) ->
        Printf.printf
          "         converge %7d msgs %6.2f s  reconverge %5d msgs  \
           %d repairs  [%s]\n%!"
          m s rc rp
          (if ex then "exact" else "NOT CONVERGED"));
    r
  in
  let json_row r =
    let per_incr, per_full = per_lsu r in
    Json.(
      Obj
        [ ("gen", String r.sr_gen); ("n", Int r.sr_n); ("seed", Int r.sr_seed);
          ("changes", Int r.sr_changes); ("per_lsu_incr_us", Float per_incr);
          ("per_lsu_full_us", Float per_full); ("speedup", Float (per_full /. per_incr));
          ("repairs", Int r.sr_repairs); ("fallbacks", Int r.sr_fallbacks);
          ("engine_equal", Bool r.sr_equal);
          ( "convergence",
            match r.sr_conv with
            | None -> Null
            | Some (m, s, ex, rc, rp) ->
                Obj
                  [ ("messages", Int m); ("seconds", Float s); ("exact", Bool ex);
                    ("reconverge_messages", Int rc); ("spf_repairs", Int rp) ] ) ])
  in
  let run quick seeds conv_max out =
    let sizes = if quick then [ 100; 1000 ] else [ 100; 1000; 5000; 10000 ] in
    let gens = [ "ba"; "waxman"; "hier" ] in
    let cells =
      List.concat_map (fun g -> List.map (fun n -> (g, n)) sizes) gens
    in
    let tasks =
      Array.of_list
        (List.concat_map
           (fun seed ->
             List.mapi (fun i (g, n) -> (g, n, seed, i)) cells)
           seeds)
    in
    Printf.printf
      "scale: %d cells (%s x n in {%s}) x %d seed(s); conv bench at n <= %d\n\n"
      (Array.length tasks)
      (String.concat ", " gens)
      (String.concat ", " (List.map string_of_int sizes))
      (List.length seeds) conv_max;
    (* The sequential pass prints rows as they land — the big cells take
       a while. *)
    let p =
      digest_passes
        ~digest:(fun rs ->
          Digest.to_hex
            (Digest.string
               (String.concat "\n" (Array.to_list (Array.map (fun r -> r.sr_digest) rs)))))
        (fun ~jobs ~now ->
          if jobs = 1 then Array.map (fun c -> print_row (run_cell ~now ~conv_max c)) tasks
          else Pool.map_array ~jobs (run_cell ~now ~conv_max) tasks)
    in
    let rows = p.result in
    Printf.printf "\n  digest seq %s  %d-domain %s [%s]\n" p.md5_seq (par_jobs ())
      p.md5_par
      (if identical p then "match" else "MISMATCH");
    (* The acceptance gate: at n >= 5000 a single-link change must
       repair at least 5x faster than recomputing from scratch. *)
    let big = Array.to_list rows |> List.filter (fun r -> r.sr_target >= 5000) in
    let speedup_ok =
      List.for_all
        (fun r -> r.sr_incr_s > 0.0 && r.sr_full_s /. r.sr_incr_s >= 5.0)
        big
    in
    if big <> [] then
      Printf.printf "  n>=5000 speedup gate (>= x5 per LSU): %s\n"
        (if speedup_ok then "PASS" else "FAIL");
    let ok =
      write_report ~out ~benchmark:"scale"
        ~params:
          Json.[ ("quick", Bool quick); ("seeds", List (List.map (fun s -> Int s) seeds));
                 ("conv_max", Int conv_max) ]
        ~rows:(Array.to_list (Array.map json_row rows))
        ([
           ("engine_equal", Array.for_all (fun r -> r.sr_equal) rows, []);
           ( "convergence exact",
             Array.for_all
               (fun r -> match r.sr_conv with Some (_, _, ex, _, _) -> ex | None -> true)
               rows,
             [] );
           digest_gate "parallel digest = sequential" p;
         ]
        @ if big = [] then [] else [ ("n>=5000 speedup >= x5 per LSU", speedup_ok, []) ])
    in
    verdict "scale" ok
      ~pass:"PASS (repairs bit-identical, convergence exact, domains agree)"
      ~fail:"FAIL"
  in
  Cmd.v
    (cmd_info "scale"
       ~doc:
         "Benchmark incremental vs full SPF and MPDA convergence on \
          internet-like topologies up to 10k nodes.")
    Term.(
      const run $ quick_arg
      $ seeds_opt [ 1; 2; 3 ] ~doc:"Comma-separated seeds; the grid runs once per seed."
      $ conv_max_arg $ out_arg "BENCH_scale.json")

(* ---- the route-server daemon and its crash-recovery audit ---------- *)

module Server = Mdr_server.Server
module Server_audit = Mdr_server.Audit
module Procfault = Mdr_faults.Procfault

let named_topo = function
  | "cairn" -> Mdr_topology.Cairn.topology ()
  | "net1" -> Mdr_topology.Net1.topology ()
  | path -> read_input_file Mdr_topology.Parser.topology_of_file path

let serve_topo_arg =
  let doc = "Topology: cairn, net1, or a file path." in
  Arg.(value & opt string "cairn" & info [ "topo" ] ~docv:"TOPOLOGY" ~doc)

let dir_opt ?(doc = "Scratch directory for the audit's server states.") default =
  Arg.(value & opt string default & info [ "dir" ] ~docv:"DIR" ~doc)

let describe_alarm = function
  | Server.Stale { age; budget } ->
      Printf.sprintf "stale %.1f s (budget %.1f s)" age budget
  | Server.Replay_lag { records; budget } ->
      Printf.sprintf "replay lag %d records (budget %d)" records budget
  | Server.Shedding { shed } -> Printf.sprintf "shed %d updates" shed
  | Server.Survived_corruption { torn_tails; snapshot_fallbacks } ->
      Printf.sprintf "survived corruption (%d torn journal tails, %d snapshot fallbacks)"
        torn_tails snapshot_fallbacks

(* ---- the wire front end: live daemon, client, chaos audit --------- *)

module Wire_transport = Mdr_wire.Transport
module Wire_server = Mdr_wire.Wire_server
module Wire_client = Mdr_wire.Client
module Wire_audit = Mdr_wire.Wire_audit

let describe_wire_alarm = function
  | Wire_server.Core a -> describe_alarm a
  | Wire_server.Dead_session { id; idle } ->
      Printf.sprintf "session %d reaped after %.1f s idle" id idle
  | Wire_server.Malformed_frames { frames } ->
      Printf.sprintf "%d corrupt frame stream(s) dropped" frames
  | Wire_server.Quarantined { client; strikes } ->
      Printf.sprintf "client %d quarantined after %d strikes" client strikes

let slo_fields prefix (s : Mdr_faults.Recovery.slo) =
  Json.[ (prefix ^ "count", Int s.count); (prefix ^ "p50_s", Float s.p50);
         (prefix ^ "p95_s", Float s.p95); (prefix ^ "max_s", Float s.max_) ]

(* The wire audits' reconnect SLOs, pooled by one grid axis (chaos
   intensity, client count): printed as a table, returned as report
   rows. *)
let slo_rows ~by ~axis ~key ~value rows =
  Printf.printf "\nreconnect SLO by %s:\n%s" by
    (Mdr_util.Tab.render
       ~header:[ axis; "samples"; "p50 s"; "p95 s"; "max s" ]
       (List.map
          (fun (k, (s : Mdr_faults.Recovery.slo)) ->
            [
              key k;
              string_of_int s.count;
              Printf.sprintf "%.3f" s.p50;
              Printf.sprintf "%.3f" s.p95;
              Printf.sprintf "%.3f" s.max_;
            ])
          rows));
  List.map
    (fun (k, s) ->
      Json.Obj ((("table", Json.String "reconnect_slo") :: (axis, value k) :: slo_fields "" s)))
    rows

let parse_wire_addr spec =
  let malformed = Error "ADDR must be unix:PATH or tcp:HOST:PORT" in
  match String.index_opt spec ':' with
  | None -> malformed
  | Some i -> (
      let scheme = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      match scheme with
      | "unix" ->
          if String.equal rest "" then Error "unix:PATH needs a path"
          else Ok (Unix.ADDR_UNIX rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error "tcp needs HOST:PORT"
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p >= 0 && p < 65536 -> (
                  match Unix.inet_addr_of_string host with
                  | a -> Ok (Unix.ADDR_INET (a, p))
                  | exception Failure _ -> (
                      match (Unix.gethostbyname host).Unix.h_addr_list with
                      | [||] -> Error (Printf.sprintf "cannot resolve host %S" host)
                      | addrs -> Ok (Unix.ADDR_INET (addrs.(0), p))
                      | exception Not_found ->
                          Error (Printf.sprintf "cannot resolve host %S" host)))
              | _ -> Error (Printf.sprintf "bad port %S" port)))
      | _ -> malformed)

let string_of_addr = function
  | Unix.ADDR_UNIX p -> "unix:" ^ p
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr a) p

let addr_conv =
  Arg.conv' ~docv:"ADDR" (parse_wire_addr, fun ppf a -> Format.pp_print_string ppf (string_of_addr a))

(* Atomic metrics exposition: write the whole page to a temp file in
   the target's directory, then rename over it, so a scraper never
   reads a torn page. *)
let write_metrics ~path text =
  let tmp = Filename.temp_file ~temp_dir:(Filename.dirname path) ".metrics" ".tmp" in
  write_file tmp text;
  Sys.rename tmp path

(* The daemon accept loop: nonblocking listener, one Transport.of_fd
   per accepted connection, watchdog heartbeat roughly once a second.
   SIGTERM/SIGINT request a graceful shutdown: stop accepting, send
   Shutdown to every live session, and return so the caller can flush
   the journal and write the final snapshot. Returns the wire stats. *)
let listen_loop srv ~addr ~once ~max_seconds ~metrics =
  let wsrv = Wire_server.create srv in
  let sig_stop = ref false in
  let prev_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> sig_stop := true))
  in
  let prev_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> sig_stop := true))
  in
  let lsock =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  (match addr with
  | Unix.ADDR_UNIX path when Sys.file_exists path -> Sys.remove path
  | _ -> ());
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock addr;
  Unix.listen lsock 16;
  Unix.set_nonblock lsock;
  Printf.printf "listening on %s\n%!" (string_of_addr (Unix.getsockname lsock));
  let t0 = Unix.gettimeofday () in
  let last_beat = ref 0.0 in
  let now = ref 0.0 in
  let stop = ref false in
  while not !stop do
    now := Unix.gettimeofday () -. t0;
    (match Unix.accept ~cloexec:true lsock with
    | fd, _ -> (
        match Wire_server.attach wsrv ~now:!now (Wire_transport.of_fd fd) with
        | Some id -> Printf.printf "session %d connected\n%!" id
        | None -> Printf.printf "session rejected (table full)\n%!")
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ());
    ignore (Wire_server.step wsrv ~now:!now);
    if !now -. !last_beat >= 1.0 then begin
      last_beat := !now;
      List.iter
        (fun a -> Printf.printf "  alarm: %s\n%!" (describe_wire_alarm a))
        (Wire_server.heartbeat wsrv ~now:!now);
      Option.iter (fun path -> write_metrics ~path (Wire_server.metrics wsrv ~now:!now)) metrics
    end;
    if once
       && (Wire_server.stats wsrv).Wire_server.opened > 0
       && Wire_server.sessions wsrv = 0
    then stop := true;
    if max_seconds > 0.0 && !now >= max_seconds then stop := true;
    if !sig_stop then stop := true;
    if not !stop then
      try Unix.sleepf 0.002 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  if !sig_stop then begin
    let said_bye = Wire_server.shutdown wsrv ~now:!now in
    Printf.printf "signal: shutting down, told %d session(s) goodbye\n%!"
      said_bye
  end;
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  Option.iter (fun path -> write_metrics ~path (Wire_server.metrics wsrv ~now:!now)) metrics;
  Unix.close lsock;
  (match addr with
  | Unix.ADDR_UNIX path -> ( try Sys.remove path with Sys_error _ -> ())
  | _ -> ());
  Wire_server.stats wsrv

let serve_cmd =
  let resume_arg =
    let doc = "Restore from $(b,--dir) (snapshot + journal replay) instead \
               of starting fresh." in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let updates_arg =
    updates_opt nonneg_int 40
      ~doc:"Ingest this many seeded updates through the backpressure queue, then shut down cleanly."
  in
  let seed_arg = seed_opt 7 ~doc:"Seed for the update stream." in
  let snap_arg =
    let doc = "Snapshot every $(docv) applied updates (0 = only at \
               shutdown)." in
    Arg.(value & opt nonneg_int 16 & info [ "snapshot-every" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Ingest queue capacity." in
    Arg.(value & opt pos_int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let routes_arg =
    let doc = "After shutdown, print routes and flow splits from node \
               $(docv) (a router name or index)." in
    Arg.(value & opt (some string) None & info [ "routes" ] ~docv:"SRC" ~doc)
  in
  let listen_arg =
    let doc = "Serve the framed wire protocol on $(docv) (unix:PATH or \
               tcp:HOST:PORT) instead of replaying a seeded stream; \
               clients connect with $(b,mdrsim wire-client)." in
    Arg.(value & opt (some addr_conv) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let once_arg =
    let doc = "With $(b,--listen): shut down cleanly once at least one \
               session has come and gone." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let max_seconds_arg =
    let doc = "With $(b,--listen): hard wall-clock cap on the daemon \
               (0 = run until $(b,--once) fires or the process is killed)." in
    Arg.(value & opt nonneg_float 0.0 & info [ "max-seconds" ] ~docv:"S" ~doc)
  in
  let metrics_arg =
    let doc = "With $(b,--listen): write a Prometheus-style text \
               exposition of the daemon's counters to $(docv) on every \
               heartbeat (atomic tmp+rename)." in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let run topo_name dir resume updates seed snapshot_every queue routes_from
      addr once max_seconds metrics =
    let topo = named_topo topo_name in
    let n = Mdr_topology.Graph.node_count topo in
    (* --routes names a router of this topology: checked before the
       server starts, so a typo is a usage error, not a served run. *)
    let routes_src =
      match routes_from with
      | None -> Ok None
      | Some spec -> (
        match int_of_string_opt spec with
        | Some i when i >= 0 && i < n -> Ok (Some i)
        | Some _ -> Error spec
        | None -> (
          match Mdr_topology.Graph.node_of_name topo spec with
          | i -> Ok (Some i)
          | exception Not_found -> Error spec))
    in
    let cost = Procfault.default_base_cost in
    let config =
      { Server.default_config with snapshot_every; queue_capacity = queue }
    in
    match routes_src with
    | Error spec ->
        Printf.eprintf "serve: --routes: unknown node %S\n" spec;
        2
    | Ok routes_src ->
    match
      if resume then Server.restore ~config ~now:0.0 ~dir ~topo ~cost ()
      else Server.create ~config ~dir ~topo ~cost ()
    with
    | exception Server.Unreadable reason ->
        Printf.eprintf "serve: cannot restore from %s: %s\n" dir reason;
        2
    | srv ->
        (match (Server.health srv ~now:0.0).Server.last_restore with
        | Some info ->
            Printf.printf
              "restored from %s: seq %d, %d journal records replayed%s, %.1f ms\n"
              (if info.Server.from_snapshot then "snapshot" else "genesis")
              (Server.seq srv) info.Server.replayed
              (if info.Server.torn_skipped then ", torn tail skipped" else "")
              (info.Server.duration *. 1e3)
        | None -> Printf.printf "fresh server: seq 0\n");
        let wire_stats =
          match addr with
          | Some addr -> Some (listen_loop srv ~addr ~once ~max_seconds ~metrics)
          | None ->
              let stream =
                Procfault.stream
                  ~rng:(Mdr_util.Rng.create ~seed)
                  ~topo ~updates ()
              in
              List.iteri
                (fun i u ->
                  let now = float_of_int (i + 1) in
                  Server.offer srv ~now (Mdr_server.Update.of_procfault u);
                  ignore (Server.poll srv ~now);
                  List.iter
                    (fun alarm ->
                      Printf.printf "  alarm: %s\n" (describe_alarm alarm))
                    (Server.heartbeat srv ~now:(now +. 0.5)))
                stream;
              None
        in
        (* drain any held-down cost updates before shutting down *)
        let now, _ = Server.drain srv ~now:(float_of_int (updates + 1)) in
        Server.checkpoint srv;
        let h = Server.health srv ~now in
        let ok = Server.lfi_ok srv && Server.settled srv in
        (match wire_stats with
        | Some st ->
            Printf.printf
              "wire: %d sessions (%d reaped, %d closed), %d frames, %d applied, \
               %d duplicates, %d rejects, %d malformed\n\
               served to seq %d, snapshot at %d\nfingerprint %s\n"
              st.Wire_server.opened st.Wire_server.reaped st.Wire_server.closed
              st.Wire_server.frames st.Wire_server.applied
              st.Wire_server.duplicates st.Wire_server.rejects
              st.Wire_server.malformed (Server.seq srv) h.Server.snap_seq
              (Server.fingerprint srv)
        | None ->
            Printf.printf
              "served %d updates: seq %d, snapshot at %d, %d shed, %d coalesced, \
               %d absorbed\nfingerprint %s\n"
              updates (Server.seq srv) h.Server.snap_seq
              h.Server.ingest.Mdr_server.Ingest.shed
              h.Server.ingest.Mdr_server.Ingest.coalesced
              h.Server.ingest.Mdr_server.Ingest.absorbed
              (Server.fingerprint srv));
        Printf.printf "spf: %d full runs, %d incremental repairs, %d fallbacks\n"
          h.Server.spf_full_runs h.Server.spf_repairs h.Server.spf_fallbacks;
        (match routes_src with
        | None -> ()
        | Some src ->
          for dst = 0 to n - 1 do
            if dst <> src then begin
              let r = Server.route srv ~src ~dst in
              let split = Server.split srv ~src ~dst in
              Printf.printf "  %s -> %s: dist %.3f via [%s]\n"
                (Mdr_topology.Graph.name topo src)
                (Mdr_topology.Graph.name topo dst)
                r.Server.distance
                (String.concat "; "
                   (List.map
                      (fun (k, f) ->
                        Printf.sprintf "%s %.0f%%"
                          (Mdr_topology.Graph.name topo k)
                          (100.0 *. f))
                      split))
            end
          done);
        Server.close srv;
        Printf.printf "serve: %s\n" (if ok then "PASS (LFI clean, settled)" else "FAIL");
        exit_of_ok ok
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:
         "Run the crash-safe route-server over a seeded update stream \
          (journal + snapshots under --dir), then shut down cleanly; \
          --resume restores and continues; --listen serves the framed \
          wire protocol on a Unix-domain or TCP socket instead.")
    Term.(
      const run $ serve_topo_arg
      $ dir_opt ~doc:"State directory (journal + snapshot)." "mdr-server"
      $ resume_arg $ updates_arg
      $ seed_arg $ snap_arg $ queue_arg $ routes_arg $ listen_arg $ once_arg
      $ max_seconds_arg $ metrics_arg)

let serve_audit_cmd =
  let updates_arg = updates_opt pos_int 60 ~doc:"Updates per audit run." in
  let kills_arg =
    let doc = "Process kills per audit run (kinds rotate between-update, \
               mid-journal, mid-snapshot)." in
    Arg.(value & opt pos_int 6 & info [ "kills" ] ~docv:"N" ~doc)
  in
  let audit_seeds_arg =
    seeds_opt [ 1; 2; 3 ] ~doc:"Comma-separated seeds; one full chaos audit per seed."
  in
  let intensities_arg =
    let doc = "Comma-separated storm intensities (cost updates offered per \
               tick) for the shed-rate bench." in
    Arg.(value & opt (nonempty pos_int) [ 2; 8; 32 ] & info [ "intensities" ] ~docv:"LIST" ~doc)
  in
  let budget_arg =
    let doc = "Updates the stormed server applies per tick." in
    Arg.(value & opt pos_int 8 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let run topo_name dir updates kills seeds intensities budget out =
    if updates < kills + 2 then begin
      prerr_endline "serve-audit: need --updates >= --kills + 2";
      2
    end
    else begin
      let topo = named_topo topo_name in
      Printf.printf
        "serve-audit: %s, %d updates, %d kills per run, seeds {%s}\n\n"
        topo_name updates kills
        (String.concat ", " (List.map string_of_int seeds));
      let audits =
        List.map
          (fun seed ->
            let d = Filename.concat dir (Printf.sprintf "audit_seed_%d" seed) in
            let r = Server_audit.run ~updates ~kills ~dir:d ~topo ~seed () in
            Printf.printf "seed %d:\n%s\n" seed (Server_audit.report r);
            (seed, r))
          seeds
      in
      let storm_seed = List.hd seeds in
      let storms =
        List.map
          (fun intensity ->
            let d = Filename.concat dir (Printf.sprintf "storm_%d" intensity) in
            Server_audit.storm ~intensity ~budget ~dir:d ~topo ~seed:storm_seed ())
          intensities
      in
      Printf.printf "storm (budget %d/tick):\n%s\n" budget
        (Mdr_util.Tab.render
           ~header:
             [ "intensity"; "offered"; "applied"; "coalesced"; "shed"; "shed rate";
               "degraded ticks"; "lfi" ]
           (List.map
              (fun (s : Server_audit.storm_report) ->
                [
                  string_of_int s.Server_audit.intensity;
                  string_of_int s.Server_audit.offered;
                  string_of_int s.Server_audit.applied;
                  string_of_int s.Server_audit.coalesced;
                  string_of_int s.Server_audit.shed;
                  Printf.sprintf "%.3f" s.Server_audit.shed_rate;
                  string_of_int s.Server_audit.degraded_ticks;
                  (if s.Server_audit.storm_lfi_ok then "yes" else "NO");
                ])
              storms));
      let sweep =
        Server_audit.sweep_snapshot_interval
          ~dir:(Filename.concat dir "sweep")
          ~topo ~seed:storm_seed ()
      in
      Printf.printf "restore latency vs snapshot interval:\n%s"
        (Mdr_util.Tab.render
           ~header:[ "snapshot every"; "journal records"; "restore mean ms"; "restore max ms" ]
           (List.map
              (fun (p : Server_audit.sweep_point) ->
                [
                  (if p.Server_audit.snapshot_every = 0 then "never"
                   else string_of_int p.Server_audit.snapshot_every);
                  string_of_int p.Server_audit.journal_records;
                  Printf.sprintf "%.2f" (p.Server_audit.restore_mean_s *. 1e3);
                  Printf.sprintf "%.2f" (p.Server_audit.restore_max_s *. 1e3);
                ])
              sweep));
      let audit_row (seed, (r : Server_audit.result)) =
        let ms x = Json.Float (x *. 1e3) in
        Json.(
          Obj
            [ ("table", String "audit"); ("seed", Int seed); ("ok", Bool (Server_audit.ok r));
              ("kills", Int (List.length r.kills)); ("final_fingerprint_ok", Bool r.final_fingerprint_ok);
              ("final_lfi_ok", Bool r.final_lfi_ok); ("restore_p50_ms", ms r.restore_slo.p50);
              ("restore_p95_ms", ms r.restore_slo.p95); ("restore_max_ms", ms r.restore_slo.max_);
              ("apply_per_s", Float r.apply_per_s); ("query_per_s", Float r.query_per_s) ])
      in
      let storm_row (s : Server_audit.storm_report) =
        Json.(
          Obj
            [ ("table", String "storm"); ("intensity", Int s.intensity); ("budget", Int s.budget);
              ("ticks", Int s.ticks); ("offered", Int s.offered); ("applied", Int s.applied);
              ("coalesced", Int s.coalesced); ("shed", Int s.shed); ("shed_rate", Float s.shed_rate);
              ("degraded_ticks", Int s.degraded_ticks); ("lfi_ok", Bool s.storm_lfi_ok) ])
      in
      let sweep_row (p : Server_audit.sweep_point) =
        Json.(
          Obj
            [ ("table", String "snapshot_sweep"); ("snapshot_every", Int p.snapshot_every);
              ("journal_records", Int p.journal_records);
              ("restore_mean_ms", Float (p.restore_mean_s *. 1e3));
              ("restore_max_ms", Float (p.restore_max_s *. 1e3)) ])
      in
      let ok =
        write_report ~out ~benchmark:"serve-audit"
          ~params:
            Json.[ ("topology", String topo_name); ("updates", Int updates); ("kills", Int kills);
                   ("budget", Int budget) ]
          ~rows:
            (List.map audit_row audits @ List.map storm_row storms
           @ List.map sweep_row sweep)
          (List.map
             (fun (seed, r) ->
               (Printf.sprintf "seed %d: every kill recovered" seed, Server_audit.ok r, []))
             audits
          @ List.map
              (fun (s : Server_audit.storm_report) ->
                (Printf.sprintf "storm intensity %d: LFI clean" s.intensity, s.storm_lfi_ok, []))
              storms)
      in
      verdict "serve-audit" ok
        ~pass:"PASS (every kill recovered fingerprint-identical, LFI clean)"
        ~fail:"FAIL (crash recovery diverged or LFI violated)"
    end
  in
  Cmd.v
    (cmd_info "serve-audit"
       ~doc:
         "Crash-recovery chaos audit: kill the route-server at seeded points \
          (including mid-journal and mid-snapshot), restore, and assert \
          byte-identical state; also bench storm shedding and \
          restore-latency vs snapshot cadence into BENCH_serve-audit.json.")
    Term.(
      const run $ serve_topo_arg $ dir_opt "_serve_audit" $ updates_arg
      $ kills_arg $ audit_seeds_arg $ intensities_arg $ budget_arg
      $ out_arg "BENCH_serve-audit.json")

let wire_client_cmd =
  let connect_arg =
    let doc = "Server address (unix:PATH or tcp:HOST:PORT)." in
    Arg.(required & opt (some addr_conv) None & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let updates_arg =
    updates_opt pos_int 20
      ~doc:"Stream this many seeded updates, then fetch the server fingerprint and disconnect."
  in
  let seed_arg = seed_opt 7 ~doc:"Seed for the update stream (and backoff jitter)." in
  let max_seconds_arg =
    let doc = "Give up after this much wall-clock time." in
    Arg.(value & opt pos_float 60.0 & info [ "max-seconds" ] ~docv:"S" ~doc)
  in
  let client_id_arg =
    let doc = "Client identity: names this writer's durable sequence \
               space on the server, so concurrent clients (and resumed \
               ones) must each pick a distinct stable id >= 1." in
    Arg.(value & opt pos_int 1 & info [ "client-id" ] ~docv:"ID" ~doc)
  in
  let claim_arg =
    let doc = "Claim exclusive ownership of the whole topology under a \
               fresh fencing epoch before streaming; a stale writer for \
               the same links is then fenced instead of racing us." in
    Arg.(value & flag & info [ "claim" ] ~doc)
  in
  let run topo_name addr updates seed max_seconds client_id claim =
    (* The stream must be built against the same --topo the server
       runs, or submits are rejected as referencing unknown nodes. *)
    let topo = named_topo topo_name in
    let stream =
      Array.of_list
        (List.map Mdr_server.Update.of_procfault
           (Procfault.stream ~rng:(Mdr_util.Rng.create ~seed) ~topo ~updates ()))
    in
    let dial ~now:_ =
      let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () -> Some (Wire_transport.of_fd fd)
      | exception
          Unix.Unix_error
            ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT
              | Unix.ETIMEDOUT | Unix.EHOSTUNREACH | Unix.ENETUNREACH
              | Unix.EAGAIN | Unix.EINTR ),
              _,
              _ ) ->
          Unix.close fd;
          None
    in
    let client =
      Wire_client.create ~client_id
        ?claim:(if claim then Some Mdr_wire.Proto.All else None)
        ~rng:(Mdr_util.Rng.create ~seed)
        ~dial ~updates:stream ()
    in
    let t0 = Unix.gettimeofday () in
    let timed_out = ref false in
    while (not (Wire_client.finished client)) && not !timed_out do
      let now = Unix.gettimeofday () -. t0 in
      if now > max_seconds then timed_out := true
      else begin
        Wire_client.step client ~now;
        try Unix.sleepf 0.002
        with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      end
    done;
    let st = Wire_client.stats client in
    Printf.printf
      "client: %d sent (+%d retries), %d acked, %d fast-forwarded, %d \
       reconnects, %d dial failures\n"
      st.Wire_client.sent st.Wire_client.retries st.Wire_client.acked
      st.Wire_client.fast_forwarded st.Wire_client.reconnects
      st.Wire_client.dial_failures;
    (match Wire_client.fingerprint client with
    | Some fp -> Printf.printf "server fingerprint %s\n" fp
    | None -> ());
    Printf.printf "wire-client: %s\n"
      (match Wire_client.phase client with
      | Wire_client.Done -> "PASS (stream durable, fingerprint fetched)"
      | Wire_client.Failed msg -> "FAIL (" ^ msg ^ ")"
      | _ -> "FAIL (timed out)");
    exit_of_ok (Wire_client.phase client = Wire_client.Done)
  in
  Cmd.v
    (cmd_info "wire-client"
       ~doc:
         "Stream seeded updates into a running $(b,mdrsim serve --listen) \
          daemon over the resumable wire protocol: timeouts, retries, \
          reconnects and resume are automatic.")
    Term.(
      const run $ serve_topo_arg $ connect_arg $ updates_arg $ seed_arg
      $ max_seconds_arg $ client_id_arg $ claim_arg)

let serve_wire_audit_cmd =
  let updates_arg = updates_opt pos_int 60 ~doc:"Updates per audit run." in
  let audit_seeds_arg =
    seeds_opt (List.init 12 succ)
      ~doc:"Comma-separated seeds; one reference-vs-chaos session per (seed, intensity) cell."
  in
  let intensities_arg =
    let doc = "Comma-separated chaos intensities scaling the fault-line \
               probabilities (0 = clean wire)." in
    Arg.(
      value
      & opt (nonempty nonneg_float) [ 0.5; 1.0; 2.0 ]
      & info [ "intensities" ] ~docv:"LIST" ~doc)
  in
  let run topo_name dir updates seeds intensities out =
    let topo = named_topo topo_name in
    Printf.printf
      "serve-wire-audit: %s, %d updates per run, seeds {%s}, intensities \
       {%s}\n\n"
      topo_name updates
      (String.concat ", " (List.map string_of_int seeds))
      (String.concat ", " (List.map (Printf.sprintf "%g") intensities));
    let results =
      Wire_audit.run_grid ~updates ~dir ~topo ~seeds ~intensities ()
    in
    print_string (Wire_audit.report results);
    let slo =
      slo_rows ~by:"intensity (pooled)" ~axis:"intensity" ~key:(Printf.sprintf "%g")
        ~value:(fun i -> Json.Float i)
        (Wire_audit.slo_by_intensity results)
    in
    let run_row (r : Wire_audit.result) =
      let c = r.chaos in
      Json.(
        Obj
          ([ ("table", String "run"); ("seed", Int r.seed); ("intensity", Float r.intensity);
             ("ok", Bool r.ok); ("client_done", Bool r.client_done);
             ("fingerprint_ok", Bool r.fingerprint_ok); ("exactly_once", Bool r.exactly_once);
             ("lfi_ok", Bool r.lfi); ("settled", Bool r.settled); ("reconnects", Int r.reconnects);
             ("dial_failures", Int r.dial_failures); ("retries", Int r.retries);
             ("fast_forwarded", Int r.fast_forwarded); ("duplicates", Int r.duplicates);
             ("malformed", Int r.malformed); ("reaped", Int r.reaped);
             ("chaos_chunks", Int c.chunks); ("chaos_flips", Int c.flips);
             ("chaos_truncations", Int c.truncations); ("chaos_duplicates", Int c.duplicates);
             ("chaos_delays", Int c.delays); ("chaos_stalls", Int c.stalls);
             ("chaos_disconnects", Int c.disconnects) ]
          @ slo_fields "reconnect_" r.reconnect_slo
          @ [ ("wall_s", Float r.wall_s) ]))
    in
    let ok =
      write_report ~out ~benchmark:"serve-wire-audit"
        ~params:[ ("topology", Json.String topo_name); ("updates", Json.Int updates) ]
        ~rows:(List.map run_row results @ slo)
        (List.map
           (fun (r : Wire_audit.result) ->
             (Printf.sprintf "seed %d intensity %g" r.seed r.intensity, r.ok, []))
           results)
    in
    verdict "serve-wire-audit" ok
      ~pass:
        "PASS (every session recovered, fingerprints byte-identical, \
         exactly-once, LFI clean)"
      ~fail:"FAIL (a chaos session diverged, stalled, or violated LFI)"
  in
  Cmd.v
    (cmd_info "serve-wire-audit"
       ~doc:
         "Wire-chaos audit: stream seeded updates through the framed \
          protocol over fault-injected transports (flips, truncation, \
          duplication, delay, stalls, mid-frame disconnects), assert the \
          final state is byte-identical to a chaos-free reference with \
          exactly-once applies, and bench reconnect SLOs into \
          BENCH_serve-wire-audit.json.")
    Term.(
      const run $ serve_topo_arg $ dir_opt "_serve_wire_audit"
      $ updates_arg $ audit_seeds_arg $ intensities_arg
      $ out_arg "BENCH_serve-wire-audit.json")

let serve_multi_audit_cmd =
  let updates_arg = updates_opt pos_int 30 ~doc:"Updates per client per run." in
  let audit_seeds_arg =
    seeds_opt (List.init 12 succ)
      ~doc:"Comma-separated seeds; one concurrent-chaos run per (seed, client count) cell."
  in
  let clients_arg =
    let doc = "Comma-separated concurrent writer counts (each >= 2)." in
    Arg.(
      value & opt (nonempty (int_from 2)) [ 2; 4; 8 ] & info [ "clients" ] ~docv:"LIST" ~doc)
  in
  let intensity_arg =
    let doc = "Chaos intensity scaling the fault-line probabilities \
               (0 = clean wire)." in
    Arg.(value & opt nonneg_float 1.0 & info [ "intensity" ] ~docv:"X" ~doc)
  in
  let server_kills_arg =
    let doc = "Server kills (between updates, mid journal append, mid \
               snapshot) per run." in
    Arg.(value & opt nonneg_int 3 & info [ "server-kills" ] ~docv:"N" ~doc)
  in
  let client_kills_arg =
    let doc = "Client kills (fresh machine resumes through Welcome) per \
               run." in
    Arg.(value & opt nonneg_int 2 & info [ "client-kills" ] ~docv:"N" ~doc)
  in
  let run topo_name dir updates seeds clients intensity server_kills
      client_kills out =
    let topo = named_topo topo_name in
    Printf.printf
      "serve-multi-audit: %s, %d updates per client, seeds {%s}, clients \
       {%s}, intensity %g\n\n"
      topo_name updates
      (String.concat ", " (List.map string_of_int seeds))
      (String.concat ", " (List.map string_of_int clients))
      intensity;
    let results =
      Wire_audit.run_multi_grid ~updates ~server_kills ~client_kills
        ~intensity ~dir ~topo ~seeds ~client_counts:clients ()
    in
    print_string (Wire_audit.report_multi results);
    let slo =
      slo_rows ~by:"client count (pooled per-client)" ~axis:"clients" ~key:string_of_int
        ~value:(fun c -> Json.Int c)
        (Wire_audit.multi_slo_by_clients results)
    in
    let client_row (c : Wire_audit.client_report) =
      Json.(
        Obj
          ([ ("client", Int c.client); ("done", Bool c.client_done); ("acked", Int c.acked);
             ("resumes", Int c.resumes); ("reconnects", Int c.reconnects);
             ("dial_failures", Int c.dial_failures); ("retries", Int c.retries);
             ("fast_forwarded", Int c.fast_forwarded); ("throttled", Int c.throttled);
             ("shed", Int c.shed) ]
          @ slo_fields "reconnect_" c.reconnect_slo))
    in
    let run_row (r : Wire_audit.multi_result) =
      Json.(
        Obj
          ([ ("table", String "run"); ("seed", Int r.seed); ("clients", Int r.clients);
             ("intensity", Float r.intensity); ("updates_per_client", Int r.updates_per_client);
             ("ok", Bool r.ok); ("all_done", Bool r.all_done);
             ("fingerprint_ok", Bool r.fingerprint_ok); ("replay_ok", Bool r.replay_ok);
             ("exactly_once", Bool r.exactly_once); ("marks_ok", Bool r.marks_ok);
             ("no_stale_applies", Bool r.no_stale_applies); ("lfi_ok", Bool r.lfi);
             ("settled", Bool r.settled); ("server_kills", Int r.server_kills);
             ("client_kills", Int r.client_kills); ("grants", Int r.grants);
             ("fenced", Int r.fenced); ("throttled", Int r.throttled);
             ("quarantines", Int r.quarantines); ("evicted", Int r.evicted);
             ("duplicates", Int r.duplicates); ("malformed", Int r.malformed) ]
          @ slo_fields "reconnect_" r.reconnect_slo
          @ [ ("wall_s", Float r.wall_s); ("per_client", List (List.map client_row r.per_client)) ]))
    in
    let ok =
      write_report ~out ~benchmark:"serve-multi-audit"
        ~params:
          Json.[ ("topology", String topo_name); ("updates_per_client", Int updates);
                 ("intensity", Float intensity); ("server_kills", Int server_kills);
                 ("client_kills", Int client_kills) ]
        ~rows:(List.map run_row results @ slo)
        (List.map
           (fun (r : Wire_audit.multi_result) ->
             (Printf.sprintf "seed %d clients %d" r.seed r.clients, r.ok, []))
           results)
    in
    verdict "serve-multi-audit" ok
      ~pass:
        "PASS (every cell byte-identical to its sequential reference, \
         exactly-once per client, zero stale-epoch applies, LFI clean)"
      ~fail:
        "FAIL (a cell diverged, lost or double-applied a client's \
         update, or let a fenced write through)"
  in
  Cmd.v
    (cmd_info "serve-multi-audit"
       ~doc:
         "Concurrent-chaos audit of the multi-writer server: N seeded \
          clients claim disjoint link shares and push interleaved \
          chaos-wrapped streams while the server and clients are killed \
          and resumed at adversarial points; assert the final state is \
          byte-identical to a sequential replay of the accepted order, \
          exactly-once per client, zero stale-epoch applies, and bench \
          per-client reconnect/shed SLOs into BENCH_serve-multi-audit.json.")
    Term.(
      const run $ serve_topo_arg $ dir_opt "_serve_multi_audit"
      $ updates_arg $ audit_seeds_arg $ clients_arg $ intensity_arg
      $ server_kills_arg $ client_kills_arg $ out_arg "BENCH_serve-multi-audit.json")

let dot_cmd =
  let topo_arg =
    let doc = "Topology: cairn, net1, or a file path." in
    Arg.(value & pos 0 string "cairn" & info [] ~docv:"TOPOLOGY" ~doc)
  in
  let run name =
    print_string (Mdr_topology.Parser.to_dot (named_topo name));
    0
  in
  Cmd.v
    (cmd_info "dot" ~doc:"Emit a Graphviz rendering of a topology.")
    Term.(const run $ topo_arg)

let cmds =
  [
    topology_cmd;
    fluid_cmd "fig9" ~doc:"OPT vs MP per-flow delays on CAIRN (fluid + packet)."
      Experiments.fig9_cairn_opt_vs_mp;
    fluid_cmd "fig10" ~doc:"OPT vs MP per-flow delays on NET1." Experiments.fig10_net1_opt_vs_mp;
    loaded_cmd "fig11" ~doc:"MP vs SP per-flow delays on CAIRN (packet-level)."
      ~default:1.05 Experiments.fig11_cairn_mp_vs_sp;
    loaded_cmd "fig12" ~doc:"MP vs SP per-flow delays on NET1 (packet-level)."
      ~default:1.5 Experiments.fig12_net1_mp_vs_sp;
    loaded_cmd "fig13" ~doc:"Effect of the long-term period T_l on CAIRN."
      ~default:1.1 Experiments.fig13_cairn_tl_effect;
    loaded_cmd "fig14" ~doc:"Effect of the long-term period T_l on NET1."
      ~default:1.4 Experiments.fig14_net1_tl_effect;
    loaded_cmd "dyn" ~doc:"Dynamic (bursty) traffic study on CAIRN."
      ~default:1.1 Experiments.dyn_bursty_traffic;
    simple_cmd "abl-eta" ~doc:"Ablation: OPT's global step size." Experiments.abl_eta_step_size;
    simple_cmd "abl-2nd" ~doc:"Ablation: second-order OPT step scaling."
      Experiments.abl_second_order;
    simple_cmd "abl-lb" ~doc:"Ablation: IH+AH vs IH-only vs SP." Experiments.abl_load_balancing;
    simple_cmd "abl-est" ~doc:"Ablation: marginal-delay estimators."
      (fun () -> Experiments.abl_estimators ());
    loaded_cmd "abl-ecmp" ~doc:"Ablation: unequal-cost multipath vs ECMP vs SP."
      ~default:1.15 Experiments.abl_ecmp;
    simple_cmd "failover" ~doc:"Trunk failure/recovery under live traffic."
      (fun () -> Experiments.failover ());
    simple_cmd "gen" ~doc:"MP vs SP across random topologies."
      (fun () -> Experiments.generalization ());
    scale_cmd;
    chaos_cmd;
    overload_cmd;
    serve_cmd;
    serve_audit_cmd;
    wire_client_cmd;
    serve_wire_audit_cmd;
    serve_multi_audit_cmd;
    lint_cmd;
    check_cmd;
    verify_cmd;
    perfbench_cmd;
    compare_cmd;
    routes_cmd;
    custom_cmd;
    dot_cmd;
    all_cmd;
  ]

let () =
  let info =
    cmd_info "mdrsim" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'A Simple Approximation to Minimum-Delay Routing' (SIGCOMM 1999)."
  in
  (* Exit-code contract: 0 = clean, 1 = a finding (failed check, lint
     violation, SLO breach), 2 = usage error — cmdliner parse errors (a
     term error via [~term_err]; a missing, malformed or out-of-range
     argument comes back as [Cmd.Exit.cli_error] and is mapped here)
     and the few checks that compare two arguments. A broken MDR_JOBS
     is a usage error too; check it eagerly here rather than letting
     [Pool.default_jobs] raise deep inside whichever subcommand first
     fans out. *)
  (match Mdr_util.Pool.default_jobs () with
  | _ -> ()
  | exception Invalid_argument reason ->
      Printf.eprintf "mdrsim: %s\n" reason;
      exit 2);
  let code = Cmd.eval' ~term_err:2 (Cmd.group info cmds) in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
