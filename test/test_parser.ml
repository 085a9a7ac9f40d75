(* Tests for the topology/flow file format. *)

module Graph = Mdr_topology.Graph
module Parser = Mdr_topology.Parser
module Metrics = Mdr_topology.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let sample =
  {|
# a triangle with asymmetric a <-> c attributes
node a
node b
node c
link a b 10 1.5
link b c 5 2.0   # slower edge
oneway a c 10 1.0
oneway c a 2 4.0
|}

let test_parse_basic () =
  let g = Parser.topology_of_string sample in
  check_int "nodes" 3 (Graph.node_count g);
  check_int "links" 6 (Graph.link_count g);
  let l = Graph.link_exn g ~src:0 ~dst:1 in
  check_float "capacity" 10.0e6 l.capacity;
  check_float "delay" 0.0015 l.prop_delay;
  (* The two oneway directions keep their distinct attributes. *)
  check_float "a->c" 10.0e6 (Graph.link_exn g ~src:0 ~dst:2).capacity;
  check_float "c->a" 2.0e6 (Graph.link_exn g ~src:2 ~dst:0).capacity

let test_parse_rejects_duplicate_oneway () =
  check "duplicate link rejected" true
    (try
       ignore (Parser.topology_of_string "node a\nnode b\nlink a b 1 1\noneway a b 1 1\n");
       false
     with Parser.Parse_error _ -> true)

let test_parse_errors_carry_line () =
  (try
     ignore (Parser.topology_of_string "node a\nnode a\n");
     Alcotest.fail "expected failure"
   with Parser.Parse_error { line; _ } -> check_int "line" 2 line);
  (try
     ignore (Parser.topology_of_string "node a\nnode b\nlink a q 1 1\n");
     Alcotest.fail "expected failure"
   with Parser.Parse_error { line; _ } -> check_int "line" 3 line);
  try
    ignore (Parser.topology_of_string "node a\nnode b\nlink a b ten 1\n");
    Alcotest.fail "expected failure"
  with Parser.Parse_error { line; _ } -> check_int "line" 3 line

let test_parse_unknown_directive () =
  check "unknown directive" true
    (try
       ignore (Parser.topology_of_string "edge a b\n");
       false
     with Parser.Parse_error _ -> true)

let test_roundtrip () =
  let g = Mdr_topology.Net1.topology () in
  let text = Parser.to_string g in
  let g2 = Parser.topology_of_string text in
  check_int "nodes" (Graph.node_count g) (Graph.node_count g2);
  check_int "links" (Graph.link_count g) (Graph.link_count g2);
  List.iter
    (fun (l : Graph.link) ->
      match Graph.link g2 ~src:l.src ~dst:l.dst with
      | None -> Alcotest.fail "missing link after roundtrip"
      | Some l2 ->
        check_float "capacity" l.capacity l2.capacity;
        check_float "delay" l.prop_delay l2.prop_delay)
    (Graph.links g)

let test_roundtrip_cairn () =
  let g = Mdr_topology.Cairn.topology () in
  let g2 = Parser.topology_of_string (Parser.to_string g) in
  check_int "links" (Graph.link_count g) (Graph.link_count g2);
  check "still connected" true (Metrics.is_strongly_connected g2);
  Alcotest.(check string) "same name" "mci-r" (Graph.name g2 (Graph.node_of_name g2 "mci-r"))

let test_flows () =
  let g = Parser.topology_of_string "node a\nnode b\nnode c\nlink a b 10 1\nlink b c 10 1\n" in
  let flows = Parser.flows_of_string g "flow a c 2.5\nflow c a 1.0 # return\n" in
  check_int "two flows" 2 (List.length flows);
  match flows with
  | [ (s1, d1, r1); (s2, d2, r2) ] ->
    check_int "src" 0 s1;
    check_int "dst" 2 d1;
    check_float "rate" 2.5e6 r1;
    check_int "src2" 2 s2;
    check_int "dst2" 0 d2;
    check_float "rate2" 1.0e6 r2
  | _ -> Alcotest.fail "shape"

let test_flows_validation () =
  let g = Parser.topology_of_string "node a\nnode b\nlink a b 10 1\n" in
  check "self flow rejected" true
    (try
       ignore (Parser.flows_of_string g "flow a a 1\n");
       false
     with Parser.Parse_error _ -> true);
  check "zero rate rejected" true
    (try
       ignore (Parser.flows_of_string g "flow a b 0\n");
       false
     with Parser.Parse_error _ -> true)

let test_dot_output () =
  let g = Mdr_topology.Net1.topology () in
  let dot = Parser.to_dot g in
  check "graph header" true (String.length dot > 20 && String.sub dot 0 5 = "graph");
  (* 17 duplex pairs -> 17 edges. *)
  let edges =
    String.split_on_char '\n' dot
    |> List.filter (fun l -> String.length l > 3 && l.[2] = '"')
  in
  check_int "17 duplex edges" 17 (List.length edges)

let test_files_roundtrip () =
  let g = Mdr_topology.Net1.topology () in
  let path = Filename.temp_file "mdr_topo" ".txt" in
  let oc = open_out path in
  output_string oc (Parser.to_string g);
  close_out oc;
  let g2 = Parser.topology_of_file path in
  Sys.remove path;
  check_int "links" (Graph.link_count g) (Graph.link_count g2)

(* --- Fuzz: mutated files fail only with Parse_error ------------------ *)

module Rng = Mdr_util.Rng

let sample_flows = "flow a c 2.5\nflow c a 1.0 # return\n# comment\nflow b a 0.5\n"

(* Replacement tokens aimed at every branch: directives, known and
   unknown names, numbers of every shape (non-finite, negative, zero,
   overflowing once scaled), comments and stray bytes. *)
let fuzz_tokens =
  [| "node"; "link"; "oneway"; "flow"; "a"; "b"; "c"; "z"; "#"; "0"; "-1"; "-0";
     "1e303"; "1e309"; "nan"; "inf"; "-inf"; "0x1p3"; "1_0"; "."; "1e"; "\t"; "\r";
     "\000"; "\255" |]

(* One to five edits of random lines: replace, insert or delete a token,
   overwrite the line with another, or set one byte to any value. *)
let mutate rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let pick a = a.(Rng.int rng ~bound:(Array.length a)) in
  for _ = 0 to Rng.int rng ~bound:5 do
    let i = Rng.int rng ~bound:(Array.length lines) in
    let toks = Array.of_list (String.split_on_char ' ' lines.(i)) in
    let k = Rng.int rng ~bound:(Array.length toks) in
    let splice before after =
      String.concat " "
        (Array.to_list (Array.sub toks 0 k) @ before
        @ after (Array.to_list (Array.sub toks (k + 1) (Array.length toks - k - 1))))
    in
    lines.(i) <-
      (match Rng.int rng ~bound:5 with
      | 0 -> splice [ pick fuzz_tokens ] Fun.id
      | 1 -> splice [ pick fuzz_tokens; toks.(k) ] Fun.id
      | 2 -> splice [] Fun.id
      | 3 -> pick lines
      | _ ->
        let b = Bytes.of_string lines.(i) in
        if Bytes.length b > 0 then
          Bytes.set b (Rng.int rng ~bound:(Bytes.length b)) (Char.chr (Rng.int rng ~bound:256));
        Bytes.to_string b)
  done;
  String.concat "\n" (Array.to_list lines)

let prop_fuzz_typed_errors =
  QCheck.Test.make ~name:"parse: mutated files give a value or Parse_error" ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      (match Parser.topology_of_string (mutate rng sample) with
      | g ->
        List.iter
          (fun (l : Graph.link) ->
            if not (Float.is_finite l.capacity && Float.is_finite l.prop_delay) then
              QCheck.Test.fail_reportf "seed %d: non-finite link attributes" seed)
          (Graph.links g)
      | exception Parser.Parse_error _ -> ());
      (match Parser.flows_of_string (Parser.topology_of_string sample) (mutate rng sample_flows) with
      | flows ->
        List.iter
          (fun (_, _, rate) ->
            if not (Float.is_finite rate && rate > 0.0) then
              QCheck.Test.fail_reportf "seed %d: bad flow rate %h" seed rate)
          flows
      | exception Parser.Parse_error _ -> ());
      true)

let test_non_finite_rejected () =
  let rejects what text =
    check what true
      (match Parser.topology_of_string text with
      | _ -> false
      | exception Parser.Parse_error { line = 3; _ } -> true)
  in
  rejects "nan capacity" "node a\nnode b\nlink a b nan 1\n";
  rejects "inf delay" "node a\nnode b\noneway a b 10 inf\n";
  rejects "capacity overflowing once scaled" "node a\nnode b\nlink a b 1e303 1\n"

let suite =
  [
    Alcotest.test_case "parse: basic topology" `Quick test_parse_basic;
    Alcotest.test_case "parse: duplicate link rejected" `Quick test_parse_rejects_duplicate_oneway;
    Alcotest.test_case "parse: errors carry line numbers" `Quick test_parse_errors_carry_line;
    Alcotest.test_case "parse: unknown directive" `Quick test_parse_unknown_directive;
    Alcotest.test_case "roundtrip: NET1" `Quick test_roundtrip;
    Alcotest.test_case "roundtrip: CAIRN" `Quick test_roundtrip_cairn;
    Alcotest.test_case "flows: parsing" `Quick test_flows;
    Alcotest.test_case "flows: validation" `Quick test_flows_validation;
    Alcotest.test_case "dot export" `Quick test_dot_output;
    Alcotest.test_case "file roundtrip" `Quick test_files_roundtrip;
    Alcotest.test_case "parse: non-finite numbers rejected" `Quick test_non_finite_rejected;
    QCheck_alcotest.to_alcotest prop_fuzz_typed_errors;
  ]
