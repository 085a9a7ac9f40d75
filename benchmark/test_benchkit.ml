let eq_int = Alcotest.(check int)
let eq_float = Alcotest.(check (float 0.0))

let test_tail_rule () =
  let level n = Stats.tail_level ~n () in
  Alcotest.(check (option int)) "19 samples: none" None (level 19);
  Alcotest.(check (option int)) "20 samples: p50" (Some 500) (level 20);
  Alcotest.(check (option int)) "99 samples: p50" (Some 500) (level 99);
  Alcotest.(check (option int)) "100 samples: p90" (Some 900) (level 100);
  Alcotest.(check (option int)) "999 samples: p90" (Some 900) (level 999);
  Alcotest.(check (option int)) "1000 samples: p99" (Some 990) (level 1000);
  Alcotest.(check (option int)) "9999 samples: p99" (Some 990) (level 9999);
  Alcotest.(check (option int)) "10000 samples: p99.9" (Some 999) (level 10000);
  eq_int "beyond p90 of 100" 10 (Stats.beyond ~n:100 900);
  eq_int "beyond p99 of 1000" 10 (Stats.beyond ~n:1000 990)

let test_percentiles () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  eq_float "p50 of 1..100" 50.0 (Stats.percentile a 500);
  eq_float "p90 of 1..100" 90.0 (Stats.percentile a 900);
  eq_float "p99 of 1..100" 99.0 (Stats.percentile a 990);
  eq_float "p50 of one sample" 7.0 (Stats.median [| 7.0 |]);
  eq_float "mean" 50.5 (Stats.mean a)

(* parent [0,100] holds A [10,40] (which holds G [20,30]) and B [50,70]. *)
let nested () =
  let t = Trace.create () in
  let name = Trace.name t "x" in
  let add start stop parent = Trace.add t ~name ~start ~stop ~parent ~run:0 in
  let p = add 0 100 (-1) in
  let a = add 10 40 p in
  let _g = add 20 30 a in
  let _b = add 50 70 p in
  t

let test_self_time () =
  let self = Trace.self_times (nested ()) in
  Alcotest.(check (array int)) "self = span - covered by children" [| 50; 20; 10; 20 |] self;
  eq_int "self times partition the root" 100 (Array.fold_left ( + ) 0 self)

let test_self_time_overlap () =
  (* Children that overlap each other or spill past the parent are
     counted once, and only inside the parent. *)
  let t = Trace.create () in
  let name = Trace.name t "x" in
  let p = Trace.add t ~name ~start:0 ~stop:100 ~parent:(-1) ~run:0 in
  ignore (Trace.add t ~name ~start:10 ~stop:50 ~parent:p ~run:0);
  ignore (Trace.add t ~name ~start:30 ~stop:60 ~parent:p ~run:0);
  ignore (Trace.add t ~name ~start:90 ~stop:120 ~parent:p ~run:0);
  eq_int "parent self" 40 (Trace.self_times t).(0)

let test_span_nesting () =
  let t = Trace.create () in
  let outer = Trace.name t "outer" and inner = Trace.name t "inner" in
  let v = Trace.span t outer (fun () -> Trace.span t inner (fun () -> 42)) in
  eq_int "value passes through" 42 v;
  let sum = Trace.summarize t in
  eq_int "outer calls" 1 (sum "outer").calls;
  eq_int "inner calls" 1 (sum "inner").calls;
  Alcotest.(check bool) "outer self <= outer total" true
    ((sum "outer").self_ns <= (sum "outer").total_ns);
  eq_int "unknown name has no calls" 0 (sum "missing").calls

let test_coverage () =
  let t = nested () in
  eq_float "root covers half of [0,200]" 0.5 (Trace.coverage t [ (0, 200) ]);
  eq_float "sections add up" 0.5 (Trace.coverage t [ (50, 100); (100, 150) ]);
  eq_float "a section inside the root" 1.0 (Trace.coverage t [ (0, 50) ])

let test_fail_frac () =
  let o = Oracle.create () in
  Alcotest.(check bool) "no checks is not correct" false (Oracle.correct o);
  Oracle.check o "a" true;
  Oracle.check o "b" false;
  Oracle.check o "c" true;
  Oracle.check o "d" true;
  eq_int "attempted" 4 o.Oracle.attempted;
  eq_int "failed" 1 o.Oracle.failed;
  eq_float "fail_frac" 0.25 (Oracle.fail_frac o);
  Alcotest.(check bool) "not correct" false (Oracle.correct o);
  Alcotest.(check (list string)) "failure named" [ "b" ] (Oracle.failures o)

(* The distance oracle, forced to fail by a wrong answer. *)
let test_forced_oracle_failure () =
  let links = [ (0, 1, 1.0); (1, 0, 1.0); (1, 2, 0.5); (2, 1, 0.5); (0, 2, 2.0); (2, 0, 2.0) ] in
  let truth root j = (Dist_oracle.distances ~n:3 ~links ~root).(j) in
  let o = Oracle.create () in
  Oracle.check o "true distances" (Dist_oracle.check ~n:3 ~links ~distance:truth);
  eq_float "0 -> 2 via 1" 1.5 (truth 0 2);
  Oracle.check o "tampered distances"
    (Dist_oracle.check ~n:3 ~links ~distance:(fun r j ->
         if r = 0 && j = 2 then 2.0 else truth r j));
  eq_int "attempted" 2 o.Oracle.attempted;
  eq_int "failed" 1 o.Oracle.failed;
  eq_float "fail_frac" 0.5 (Oracle.fail_frac o)

let () =
  Alcotest.run "benchkit"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile needs 10 samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "self time with overlapping children" `Quick test_self_time_overlap;
          Alcotest.test_case "span nesting and summaries" `Quick test_span_nesting;
          Alcotest.test_case "coverage of root spans" `Quick test_coverage;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "fail_frac accounting" `Quick test_fail_frac;
          Alcotest.test_case "forced distance-oracle failure" `Quick test_forced_oracle_failure;
        ] );
    ]
