(* The benchmark driver:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload on inputs drawn from the seed, checks every output
   against its oracle, prints readable figures and then, as the last
   line, one JSON record. With --trace 0 the record holds the
   end-to-end metrics (tracing off); with --trace 1 it holds the
   per-layer metrics of a traced round, and the spans are written to
   _bench_out/. Exit status: 0 when every check held, 1 when one failed,
   2 on a usage error. *)

let workloads = [ "mpda-converge"; "route-serve"; "paper-cairn" ]

let usage =
  Printf.sprintf "usage: main.exe --workload (%s) --seed N --seconds S --trace 0|1"
    (String.concat "|" workloads)

let usage_error msg =
  prerr_endline ("error: " ^ msg);
  prerr_endline usage;
  exit 2

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measuring time budget (> 0)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
  in
  Arg.parse specs (fun a -> usage_error ("unexpected argument " ^ a)) usage;
  if not (List.mem !workload workloads) then usage_error "unknown or missing --workload";
  if !seed < 0 then usage_error "--seed must be >= 0";
  if not (Float.is_finite !seconds && !seconds > 0.0) then usage_error "--seconds must be > 0";
  if !trace <> 0 && !trace <> 1 then usage_error "--trace must be 0 or 1";
  (* The benchmark measures the sources it was built from; run anywhere
     but the root of a checkout it would have nothing to stand on. *)
  if not (Sys.file_exists "dune-project" && Sys.file_exists "lib") then
    usage_error "run from the root of a checkout (no dune-project and lib/ here)";
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  let tmp = Filename.concat "_bench_tmp" (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  mkdir_p tmp;
  let oracle = Oracle.create () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Route_serve.remove_tree tmp;
        (* Other runs may still hold their own directories here. *)
        try Unix.rmdir "_bench_tmp" with Unix.Unix_error _ -> ())
      (fun () ->
        Printf.printf "benchmark workload=%s seed=%d seconds=%g trace=%d\n" !workload seed
          seconds !trace;
        print_endline (Host.record ~journal_dir:tmp);
        if traced then begin
          let tr = Trace.create () in
          let metrics, lines, digest =
            match !workload with
            | "mpda-converge" -> Mpda_converge.trace ~seed oracle tr
            | "route-serve" -> Route_serve.trace ~seed ~tmp oracle tr
            | _ -> Paper_cairn.trace ~seed oracle tr
          in
          mkdir_p "_bench_out";
          let path =
            Filename.concat "_bench_out" (Printf.sprintf "spans-%s-seed%d.tsv" !workload seed)
          in
          Trace.write tr path;
          let catalog = Report.per_layer_metrics metrics in
          let lines =
            lines
            @ List.map
                (fun ((m : Report.metric), measured) ->
                  Report.line m.name m.value m.unit_
                    (if measured then "" else "(not measured on this workload)"))
                catalog
            @ [ Printf.sprintf "spans %d written to %s" (Trace.length tr) path ]
          in
          (List.map fst catalog, lines, digest)
        end
        else begin
          let e2e, lines, digest =
            match !workload with
            | "mpda-converge" -> Mpda_converge.run ~seed ~seconds oracle
            | "route-serve" -> Route_serve.run ~seed ~seconds ~tmp oracle
            | _ -> Paper_cairn.run ~seed ~seconds oracle
          in
          (Report.e2e_metrics e2e ~heap_peak_mb:(heap_peak_mb ()), lines, digest)
        end)
  in
  let metrics, lines, digest = result in
  List.iter print_endline lines;
  if not traced then
    List.iter
      (fun (m : Report.metric) -> print_endline (Report.line m.name m.value m.unit_ "(gated)"))
      metrics;
  Printf.printf "digest %s\n" digest;
  Printf.printf "checks attempted=%d failed=%d fail_frac=%g\n" oracle.Oracle.attempted
    oracle.Oracle.failed (Oracle.fail_frac oracle);
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (Oracle.failures oracle);
  print_endline
    (Report.json ~correct:(Oracle.correct oracle) ~attempted:oracle.Oracle.attempted
       ~failed:oracle.Oracle.failed metrics);
  exit (if Oracle.correct oracle then 0 else 1)
