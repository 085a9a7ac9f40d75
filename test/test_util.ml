(* Tests for Mdr_util: RNG determinism and statistics,
   online statistics, table rendering. *)

module Rng = Mdr_util.Rng
module Stats = Mdr_util.Stats
module Tab = Mdr_util.Tab

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check "streams differ" true (!same = 0)

let test_rng_float_range () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    check "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_range () =
  let rng = Rng.create ~seed:4 in
  let seen = Array.make 10 false in
  for _ = 1 to 10_000 do
    let v = Rng.int rng ~bound:10 in
    check "in range" true (v >= 0 && v < 10);
    seen.(v) <- true
  done;
  check "all values hit" true (Array.for_all Fun.id seen)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:5 in
  let w = Stats.Welford.create () in
  for _ = 1 to 100_000 do
    Stats.Welford.add w (Rng.exponential rng ~rate:4.0)
  done;
  let mean = Stats.Welford.mean w in
  check "exp mean ~ 1/rate" true (Float.abs (mean -. 0.25) < 0.01)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:9 in
  let child = Rng.split parent in
  let a = Rng.bits64 parent and b = Rng.bits64 child in
  check "split streams differ" true (a <> b)

let test_rng_uniform_bounds () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng ~lo:(-2.0) ~hi:3.0 in
    check "uniform range" true (x >= -2.0 && x < 3.0)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:13 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check "permutation" true (sorted = Array.init 50 Fun.id);
  check "actually shuffled" true (arr <> Array.init 50 Fun.id)

let test_rng_invalid_args () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int rng ~bound:0));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Rng.exponential: rate <= 0") (fun () ->
      ignore (Rng.exponential rng ~rate:0.0))

let test_welford_basic () =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check_float "mean" 3.0 (Stats.Welford.mean w);
  check_float "variance" 2.5 (Stats.Welford.variance w);
  check_float "min" 1.0 (Stats.Welford.min w);
  check_float "max" 5.0 (Stats.Welford.max w);
  check_int "count" 5 (Stats.Welford.count w)

let test_welford_empty () =
  let w = Stats.Welford.create () in
  check_float "mean 0" 0.0 (Stats.Welford.mean w);
  check_float "var 0" 0.0 (Stats.Welford.variance w)

let test_welford_reset () =
  let w = Stats.Welford.create () in
  Stats.Welford.add w 10.0;
  Stats.Welford.reset w;
  check_int "count reset" 0 (Stats.Welford.count w);
  Stats.Welford.add w 2.0;
  check_float "mean after reset" 2.0 (Stats.Welford.mean w)

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50.0 (Stats.percentile xs ~p:50.0);
  check_float "p95" 95.0 (Stats.percentile xs ~p:95.0);
  check_float "p100" 100.0 (Stats.percentile xs ~p:100.0)

let test_mean_of_list () =
  check_float "empty" 0.0 (Stats.mean_of_list []);
  check_float "values" 2.0 (Stats.mean_of_list [ 1.0; 2.0; 3.0 ])

let test_tab_render () =
  let s = Tab.render ~header:[ "name"; "value" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ] in
  check "has header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  check_int "line count" 4 (List.length lines);
  (* all lines equal width *)
  match lines with
  | first :: rest ->
    check "aligned" true
      (List.for_all (fun l -> String.length l = String.length first) rest)
  | [] -> Alcotest.fail "no lines"

let test_tab_float_cell () =
  Alcotest.(check string) "fixed" "1.500" (Tab.float_cell 1.5);
  Alcotest.(check string) "inf" "inf" (Tab.float_cell infinity);
  Alcotest.(check string) "decimals" "2.7" (Tab.float_cell ~decimals:1 2.71)

let test_tab_series () =
  let s =
    Tab.series ~title:"fig" ~x_label:"flow" ~columns:[ "OPT"; "MP" ]
      [ ("0", [ 1.0; 2.0 ]); ("1", [ 3.0; 4.0 ]) ]
  in
  check "title present" true (String.length s > 10)

let test_json_layout () =
  let open Mdr_util.Json in
  let v =
    Obj
      [
        ("name", String "a\"b\\c\n\001");
        ("rows", List [ Obj [ ("x", Int 1); ("y", Float 0.5); ("z", Float nan) ]; List [] ]);
        ("ok", Bool true);
        ("none", Null);
      ]
  in
  Alcotest.(check string)
    "layout" "{\n  \"name\": \"a\\\"b\\\\c\\n\\u0001\",\n  \"rows\": [\n    {\"x\": 1, \"y\": 0.5, \"z\": null},\n    []\n  ],\n  \"ok\": true,\n  \"none\": null\n}\n"
    (to_string v);
  Alcotest.(check string)
    "numbers" "[\n  null,\n  1e+06,\n  -2\n]\n"
    (to_string (List [ Float infinity; Float 1e6; Int (-2) ]))

let test_json_report () =
  match Mdr_util.Json.report ~benchmark:"b" ~params:[] ~rows:[] ~gates:[] with
  | Mdr_util.Json.Obj fields ->
      Alcotest.(check (list string))
        "record keys" [ "benchmark"; "host"; "params"; "rows"; "gates" ] (List.map fst fields);
      (match List.assoc "host" fields with
      | Mdr_util.Json.Obj host ->
          Alcotest.(check (list string)) "host keys" [ "cpus"; "ocaml"; "mdr_jobs" ] (List.map fst host)
      | _ -> Alcotest.fail "host is not an object")
  | _ -> Alcotest.fail "report is not an object"

(* Property tests. *)
let prop_percentile_member =
  QCheck.Test.make ~name:"percentile returns a member" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) -> List.mem (Stats.percentile xs ~p) xs)

let suite =
  [
    Alcotest.test_case "rng: deterministic per seed" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng: float in [0,1)" `Quick test_rng_float_range;
    Alcotest.test_case "rng: int in range" `Quick test_rng_int_range;
    Alcotest.test_case "rng: exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: uniform bounds" `Quick test_rng_uniform_bounds;
    Alcotest.test_case "rng: shuffle is a permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng: invalid arguments raise" `Quick test_rng_invalid_args;
    Alcotest.test_case "welford: known values" `Quick test_welford_basic;
    Alcotest.test_case "welford: empty" `Quick test_welford_empty;
    Alcotest.test_case "welford: reset" `Quick test_welford_reset;
    Alcotest.test_case "percentile: nearest rank" `Quick test_percentile;
    Alcotest.test_case "mean_of_list" `Quick test_mean_of_list;
    Alcotest.test_case "tab: render aligns" `Quick test_tab_render;
    Alcotest.test_case "tab: float cells" `Quick test_tab_float_cell;
    Alcotest.test_case "tab: series" `Quick test_tab_series;
    Alcotest.test_case "json: layout and escaping" `Quick test_json_layout;
    Alcotest.test_case "json: report record" `Quick test_json_report;
    QCheck_alcotest.to_alcotest prop_percentile_member;
  ]
