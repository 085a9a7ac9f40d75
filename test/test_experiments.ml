(* Tests for the experiments layer: workload construction, CSV
   rendering, and the cheap experiments end to end (the expensive
   figure regenerations run in `mdrsim all`; their shape checks are
   also asserted by the integration suite at reduced scale). *)

module Workload = Mdr_experiments.Workload
module Experiments = Mdr_experiments.Experiments

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_workload_rates () =
  let w = Workload.cairn ~load:1.0 in
  check_float "flow 0" 2.0e6 (Workload.rate_bits w 0);
  check_float "flow 10" 3.0e6 (Workload.rate_bits w 10);
  let w2 = Workload.cairn ~load:1.5 in
  check_float "scaled" 3.0e6 (Workload.rate_bits w2 0)

let test_workload_traffic_consistent () =
  let w = Workload.net1 ~load:1.0 in
  let traffic = Workload.traffic w in
  (* Total packets/s equal total bits/s over the packet size. *)
  let expected_bits =
    List.fold_left ( +. ) 0.0
      (List.mapi (fun i _ -> Workload.rate_bits w i) w.Workload.pairs)
  in
  check_float "total rate" (expected_bits /. Workload.packet_size)
    (Mdr_fluid.Traffic.total_rate traffic)

let test_workload_sim_flows_match () =
  let w = Workload.cairn ~load:1.0 in
  let flows = Workload.sim_flows w in
  check "same count" true (List.length flows = List.length w.Workload.pairs);
  List.iteri
    (fun i (f : Mdr_netsim.Sim.flow_spec) ->
      let src, dst = List.nth w.Workload.pairs i in
      check "src" true (f.src = src);
      check "dst" true (f.dst = dst);
      check_float "rate" (Workload.rate_bits w i) f.rate_bits)
    flows

let test_flow_labels () =
  let w = Workload.cairn ~load:1.0 in
  Alcotest.(check string) "label" "0 (lbl->mci-r)" (Workload.flow_label w 0)

let test_csv_rendering () =
  let series =
    {
      Experiments.x_label = "flow";
      columns = [ "OPT"; "MP" ];
      rows = [ ("0", [ 1.25; 2.5 ]); ("a,b", [ 3.0; 4.0 ]) ];
    }
  in
  let csv = Experiments.to_csv series in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  Alcotest.(check string) "header" "flow,OPT,MP" (List.nth lines 0);
  Alcotest.(check string) "row" "0,1.25,2.5" (List.nth lines 1);
  check "comma field quoted" true
    (String.length (List.nth lines 2) > 0
    && (List.nth lines 2).[0] = '"')

let test_fig8_outcome () =
  let o = Experiments.fig8_topologies () in
  check "all checks pass" true (List.for_all snd o.Experiments.checks);
  check "mentions both topologies" true
    (let r = o.Experiments.rendered in
     let contains needle =
       let n = String.length needle and h = String.length r in
       let rec scan i = i + n <= h && (String.sub r i n = needle || scan (i + 1)) in
       scan 0
     in
     contains "CAIRN" && contains "NET1")

let test_abl_eta_outcome () =
  let o = Experiments.abl_eta_step_size () in
  check "checks pass" true (List.for_all snd o.Experiments.checks);
  check "has series" true (o.Experiments.series <> None)

let test_abl_lb_outcome () =
  let o = Experiments.abl_load_balancing () in
  check "checks pass" true (List.for_all snd o.Experiments.checks)

let test_scale_outcome () =
  let o = Experiments.scale_protocol () in
  check "checks pass" true (List.for_all snd o.Experiments.checks);
  match o.Experiments.series with
  | Some s -> check "four sizes" true (List.length s.Experiments.rows = 4)
  | None -> Alcotest.fail "expected series"

let test_all_listing () =
  let all = Experiments.all () in
  check "every figure present" true
    (List.for_all
       (fun id -> List.mem_assoc id all)
       [ "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "dyn";
         "abl-eta"; "abl-2nd"; "abl-lb"; "abl-est"; "abl-ecmp"; "failover";
         "gen"; "scale" ])

let suite =
  [
    Alcotest.test_case "workload: flow rates" `Quick test_workload_rates;
    Alcotest.test_case "workload: traffic totals" `Quick test_workload_traffic_consistent;
    Alcotest.test_case "workload: sim flows" `Quick test_workload_sim_flows_match;
    Alcotest.test_case "workload: labels" `Quick test_flow_labels;
    Alcotest.test_case "csv rendering" `Quick test_csv_rendering;
    Alcotest.test_case "fig8 end to end" `Quick test_fig8_outcome;
    Alcotest.test_case "abl-eta end to end" `Quick test_abl_eta_outcome;
    Alcotest.test_case "abl-lb end to end" `Quick test_abl_lb_outcome;
    Alcotest.test_case "scale end to end" `Quick test_scale_outcome;
    Alcotest.test_case "experiment registry complete" `Quick test_all_listing;
  ]
