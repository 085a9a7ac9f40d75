(* The two output formats: readable lines naming every figure with its
   unit and sample count, and the final one-line JSON record. *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* End-to-end figures every workload reports with tracing off. What a
   "request" and a "side operation" are differs per workload; see
   README.md. *)
type e2e = {
  setup_s : float;
  ops_per_s : float;
  request_ms_p90 : float;
  side_op_ms_p50 : float;
}

let e2e_metrics e ~heap_peak_mb =
  [
    metric "setup_s" "s" e.setup_s;
    metric "ops_per_s" "1/s" e.ops_per_s;
    metric "request_ms_p90" "ms" e.request_ms_p90;
    metric "side_op_ms_p50" "ms" e.side_op_ms_p50;
    metric "heap_peak_mb" "MB" heap_peak_mb;
  ]

(* Every per-layer figure, in output order. A traced run reports all of
   them; one the workload does not measure reads [not_measured]. *)
let per_layer_catalog =
  [
    ("router.handle_msg.calls", "count");
    ("router.handle_msg.self_s", "s");
    ("router.handle_msg.us_p50", "us");
    ("router.handle_msg.us_p99", "us");
    ("router.handle_link_cost.us_p50", "us");
    ("router.outputs_per_msg", "ratio");
    ("router.active_phases", "count");
    ("incr_spf.full_runs", "count");
    ("incr_spf.repairs", "count");
    ("incr_spf.fallbacks", "count");
    ("incr_spf.repair_ratio", "ratio");
    ("syncnet.queue_depth_max", "count");
    ("syncnet.pump_self_s", "s");
    ("client.step.self_s", "s");
    ("wire_server.step.apply_us_p50", "us");
    ("wire_server.step.apply_us_p99", "us");
    ("wire_server.step.idle_us_p50", "us");
    ("wire.codec_us", "us");
    ("wire.overhead_us", "us");
    ("wire_server.throttled", "count");
    ("wire_server.duplicates", "count");
    ("client.retries", "count");
    ("server.apply.us_p50", "us");
    ("server.apply.us_p99", "us");
    ("journal.append.us_p50", "us");
    ("snapshot.checkpoints", "count");
    ("snapshot.checkpoint_ms", "ms");
    ("server.spf_repairs", "count");
    ("server.spf_fallbacks", "count");
    ("server.route.us_p50", "us");
    ("server.split.us_p50", "us");
    ("gallager.solve_s", "s");
    ("gallager.iterations", "count");
    ("gallager.iter_ms", "ms");
    ("controller.mp_s", "s");
    ("controller.sp_s", "s");
    ("flows.compute_us", "us");
    ("sim.run_s", "s");
    ("sim.delivered", "count");
    ("sim.control_messages", "count");
    ("trace.overhead_frac", "ratio");
    ("trace.coverage_frac", "ratio");
  ]

(* The value of a per-layer metric a workload does not measure: its
   layer does not run there, or runs only behind an interface the
   benchmark cannot span (the routers inside Server.apply and Sim.run).
   No measured figure is negative, except wire.overhead_us on
   route-serve, the one workload that measures it. *)
let not_measured = -1.0

(* The full catalog, each metric paired with whether it was measured. *)
let per_layer_metrics measured =
  List.iter
    (fun (m : metric) ->
      if not (List.mem_assoc m.name per_layer_catalog) then
        invalid_arg ("Report: per-layer metric not in the catalog: " ^ m.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : metric) -> String.equal m.name name) measured with
      | Some m -> (m, true)
      | None -> (metric name unit_ not_measured, false))
    per_layer_catalog

(* A readable figure line: name, value, unit, and how it was taken. *)
let line name value unit_ how = Printf.sprintf "%-32s %14.6g %-5s %s" name value unit_ how

(* Median and the highest percentile with at least ten samples beyond
   it, as readable lines; [scale] converts samples to [unit_]. *)
let timing_lines ~prefix ~unit_ ~scale samples =
  let n = Array.length samples in
  if n = 0 then [ Printf.sprintf "%-32s no samples" prefix ]
  else begin
    let s = Stats.sorted samples in
    let v pm = Stats.percentile_sorted s pm *. scale in
    let median = line (prefix ^ "_p50") (v 500) unit_ (Printf.sprintf "(n=%d)" n) in
    let mean =
      line (prefix ^ "_mean") (Stats.mean samples *. scale) unit_ (Printf.sprintf "(n=%d)" n)
    in
    match Stats.tail_level ~n () with
    | Some pm when pm > 500 ->
        [
          median;
          line (prefix ^ "_" ^ Stats.level_name pm) (v pm) unit_
            (Printf.sprintf "(n=%d, %d beyond)" n (Stats.beyond ~n pm));
          mean;
        ]
    | _ ->
        [ median; mean; Printf.sprintf "%-32s no percentile above p50 has 10 samples beyond it" "" ]
  end

let json_number v =
  if not (Float.is_finite v) then invalid_arg "Report.json_number: not finite";
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; unit_; value } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
