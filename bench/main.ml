(* Bechamel micro-benchmarks of the core algorithmic pieces, one
   [Test.make] per component, so performance regressions in the library
   itself are visible. The paper's figures and their shape checks are
   `mdrsim all`; the overload sweep is `mdrsim overload`. *)

module Workload = Mdr_experiments.Workload
open Bechamel
open Toolkit

let bench_dijkstra =
  let w = Workload.cairn ~load:1.0 in
  let cost (l : Mdr_topology.Graph.link) = 1.0 +. (l.prop_delay *. 1000.0) in
  Test.make ~name:"dijkstra: CAIRN all-destinations"
    (Staged.stage (fun () ->
         List.iter
           (fun dst ->
             ignore (Mdr_routing.Dijkstra.distances_to w.Workload.topo ~dst ~cost))
           (Mdr_topology.Graph.nodes w.Workload.topo)))

let bench_mpda_convergence =
  let topo = Mdr_topology.Net1.topology () in
  let cost (l : Mdr_topology.Graph.link) = 1.0 +. (l.prop_delay *. 1000.0) in
  Test.make ~name:"mpda: NET1 cold-start convergence"
    (Staged.stage (fun () ->
         let net = Mdr_routing.Network.create ~topo ~cost () in
         Mdr_routing.Network.run net;
         assert (Mdr_routing.Network.quiescent net)))

let bench_fluid_flows =
  let w = Workload.cairn ~load:1.0 in
  let model = Workload.model w in
  let traffic = Workload.traffic w in
  let params = Mdr_gallager.Gallager.spf_params model w.Workload.topo in
  Test.make ~name:"fluid: CAIRN flow computation"
    (Staged.stage (fun () ->
         ignore (Mdr_fluid.Flows.compute params traffic)))

let bench_opt_iteration =
  let w = Workload.net1 ~load:1.0 in
  let model = Workload.model w in
  let traffic = Workload.traffic w in
  Test.make ~name:"gallager: NET1 5 iterations"
    (Staged.stage (fun () ->
         ignore (Mdr_gallager.Gallager.solve ~max_iters:5 model w.Workload.topo traffic)))

let bench_ah_step =
  let current = [ (1, 0.4); (2, 0.35); (3, 0.25) ] in
  let through = function 1 -> 1.0 | 2 -> 1.5 | 3 -> 2.0 | _ -> infinity in
  Test.make ~name:"heuristics: one AH adjustment"
    (Staged.stage (fun () ->
         ignore (Mdr_core.Heuristics.adjust ~current ~through ())))

let bench_packet_sim =
  let topo = Mdr_topology.Net1.topology () in
  let flows =
    List.map
      (fun (src, dst) -> { Mdr_netsim.Sim.src; dst; rate_bits = 2.0e6; burst = None })
      (Mdr_topology.Net1.flow_pairs topo)
  in
  let cfg =
    { Mdr_netsim.Sim.default_config with sim_time = 2.0; warmup = 0.5 }
  in
  Test.make ~name:"netsim: 2 simulated seconds of NET1"
    (Staged.stage (fun () -> ignore (Mdr_netsim.Sim.run ~config:cfg topo flows)))

(* The event engine at the queue depth a CAIRN packet run keeps (the
   heap holds about 170 events there): each run fires the earliest
   event, which schedules its successor at a delay taken from a fixed
   cycle, so the queue stays 170 deep with many distinct times. *)
let bench_engine =
  let module E = Mdr_eventsim.Engine in
  let e = E.create () in
  let rng = Mdr_util.Rng.create ~seed:1 in
  let delays = Array.init 1024 (fun _ -> Mdr_util.Rng.float rng) in
  let next = ref 0 in
  let rec act () =
    next := (!next + 1) land 1023;
    ignore (E.schedule e ~delay:delays.(!next) act)
  in
  for i = 0 to 169 do
    ignore (E.schedule e ~delay:delays.(i) act)
  done;
  Test.make ~name:"engine: schedule+fire, 170 pending"
    (Staged.stage (fun () -> ignore (E.step e)))

(* Figure 11's packet workload: CAIRN at load 1.05. *)
let cairn = Workload.cairn ~load:1.05

let bench_cairn_sim =
  let flows = Workload.sim_flows cairn in
  let cfg = { Mdr_netsim.Sim.default_config with sim_time = 5.0; warmup = 1.0 } in
  Test.make ~name:"netsim: 5 simulated seconds of CAIRN"
    (Staged.stage (fun () -> ignore (Mdr_netsim.Sim.run ~config:cfg cairn.Workload.topo flows)))

(* A warm 1000-node BA table and its shortest-path state from root 0 —
   the per-LSU hot path `mdrsim scale` sweeps at larger n. *)
let ba1000 () =
  let module T = Mdr_routing.Topo_table in
  let module I = Mdr_routing.Incr_spf in
  let rng = Mdr_util.Rng.substream ~seed:1 ~index:0 in
  let topo = Mdr_topology.Generators.barabasi_albert ~rng ~n:1000 ~m:2 () in
  let table = T.create () in
  List.iter
    (fun (l : Mdr_topology.Graph.link) ->
      T.set table ~head:l.src ~tail:l.dst
        ~cost:(0.25 *. float_of_int (1 + Mdr_util.Rng.int rng ~bound:32)))
    (Mdr_topology.Graph.links topo);
  let iws = I.workspace () in
  let st = I.create ~n:1000 ~root:0 in
  I.full iws st table;
  (topo, table, iws, st)

let bench_incr_spf =
  let module T = Mdr_routing.Topo_table in
  let module I = Mdr_routing.Incr_spf in
  let topo, table, iws, st = ba1000 () in
  let l = List.hd (Mdr_topology.Graph.links topo) in
  let flip = ref false in
  Test.make ~name:"incr_spf: BA-1000 single-link repair"
    (Staged.stage (fun () ->
         flip := not !flip;
         let cost = if !flip then 4.0 else 4.25 in
         T.set table ~head:l.src ~tail:l.dst ~cost;
         ignore
           (I.update iws st table
              ~changes:[ { T.head = l.src; tail = l.dst; cost } ])))

(* A structural change: the link into the last-added node (a BA leaf)
   on its shortest path goes away and comes back, so the repair orphans
   the leaf and re-enters it along its in-row, and the table's out- and
   in-rows lose and regain a link rather than change a cost. *)
let bench_incr_spf_tree_edge =
  let module T = Mdr_routing.Topo_table in
  let module I = Mdr_routing.Incr_spf in
  let _, table, iws, st = ba1000 () in
  let tail = 999 in
  let head = st.I.parent.(tail) in
  let cost = Option.get (T.cost table ~head ~tail) in
  let step change =
    T.apply_entry table change;
    ignore (I.update iws st table ~changes:[ change ])
  in
  Test.make ~name:"incr_spf: BA-1000 tree-edge move"
    (Staged.stage (fun () ->
         step { T.head; tail; cost = infinity };
         step { T.head; tail; cost }))

(* A router whose one neighbor (node 0 of the BA-1000 graph) reported
   its shortest-path tree; the neighbor then moves its largest subtree
   hanging at depth >= 2 under another node, and back, each move one
   LSU (a new parent link and the old one's removal). The router runs
   PDA so every LSU is applied and followed by its MTU. *)
let bench_router_subtree_move =
  let module T = Mdr_routing.Topo_table in
  let module I = Mdr_routing.Incr_spf in
  let module R = Mdr_routing.Router in
  let _, table, _, st = ba1000 () in
  let n = 1000 and parent = st.I.parent in
  let cost v = Option.get (T.cost table ~head:parent.(v) ~tail:v) in
  let rec depth v = if parent.(v) < 0 then 0 else 1 + depth parent.(v) in
  let rec inside ~top v = v = top || (v >= 0 && inside ~top parent.(v)) in
  let size = Array.make n 0 in
  for v = 0 to n - 1 do
    let u = ref v in
    while !u >= 0 do
      size.(!u) <- size.(!u) + 1;
      u := parent.(!u)
    done
  done;
  let v = ref (-1) in
  for u = 0 to n - 1 do
    if depth u >= 2 && (!v < 0 || size.(u) > size.(!v)) then v := u
  done;
  let v = !v and p = parent.(!v) in
  let p' = ref 0 in
  while !p' = p || inside ~top:v !p' do
    incr p'
  done;
  let p' = !p' and c = cost v in
  (* Both entries end at [v], so (head, tail) order is head order. *)
  let move ~from ~onto =
    let entries =
      [ { T.head = onto; tail = v; cost = c }; { T.head = from; tail = v; cost = infinity } ]
    in
    let entries = if onto < from then entries else List.rev entries in
    { R.entries; reset = false; seq = None; ack_of = None }
  in
  let tree =
    List.filter_map
      (fun u ->
        if parent.(u) < 0 then None
        else Some { T.head = parent.(u); tail = u; cost = cost u })
      (List.init n Fun.id)
  in
  let id, _ = List.hd (T.out_links table ~head:0) in
  let r = R.create ~mode:R.Pda ~id ~n () in
  ignore (R.handle_link_up r ~nbr:0 ~cost:(Option.get (T.cost table ~head:id ~tail:0)));
  ignore (R.handle_msg r ~from_:0 { R.entries = tree; reset = true; seq = None; ack_of = None });
  let away = move ~from:p ~onto:p' and back = move ~from:p' ~onto:p in
  Test.make ~name:"router: neighbor LSU, BA-1000 subtree move"
    (Staged.stage (fun () ->
         ignore (R.handle_msg r ~from_:0 away);
         ignore (R.handle_msg r ~from_:0 back)))

let bench_estimator =
  Test.make ~name:"estimator: busy-period sample"
    (Staged.stage (fun () ->
         let e = Mdr_costs.Estimator.busy_period ~prop_delay:0.001 in
         for i = 1 to 100 do
           Mdr_costs.Estimator.on_arrival e ~now:(float_of_int i *. 0.001);
           Mdr_costs.Estimator.on_departure e
             ~now:((float_of_int i *. 0.001) +. 0.0005)
             ~sojourn:0.0005 ~service:0.0004 ~busy:(i mod 3 <> 0)
         done;
         ignore (Mdr_costs.Estimator.sample e ~now:1.0)))

let micro_benchmarks () =
  let tests =
    [
      bench_dijkstra;
      bench_mpda_convergence;
      bench_fluid_flows;
      bench_opt_iteration;
      bench_ah_step;
      bench_packet_sim;
      bench_engine;
      bench_cairn_sim;
      bench_incr_spf;
      bench_incr_spf_tree_edge;
      bench_router_subtree_move;
      bench_estimator;
    ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~kde:None () in
  let instance = Instance.monotonic_clock in
  let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"mdr" tests) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let analyzed = Analyze.all ols instance results in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let per_run =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t
        | Some [] | None -> Float.nan
      in
      rows := (name, per_run) :: !rows)
    analyzed;
  let rows = List.sort compare !rows in
  print_endline "### micro-benchmarks (Bechamel, monotonic clock)";
  print_endline
    (Mdr_util.Tab.render
       ~header:[ "benchmark"; "time per run" ]
       (List.map
          (fun (name, ns) ->
            let cell =
              if Float.is_nan ns then "n/a"
              else if ns > 1.0e9 then Printf.sprintf "%.2f s" (ns /. 1.0e9)
              else if ns > 1.0e6 then Printf.sprintf "%.2f ms" (ns /. 1.0e6)
              else if ns > 1.0e3 then Printf.sprintf "%.2f us" (ns /. 1.0e3)
              else Printf.sprintf "%.0f ns" ns
            in
            [ name; cell ])
          rows));
  rows

(* Minor-heap words allocated per delivered packet by the Figure 11
   MP run on CAIRN (the default config: seed 1, 60 simulated seconds). *)
let packet_allocation () =
  let flows = Workload.sim_flows cairn in
  let before = Gc.minor_words () in
  let r = Mdr_netsim.Sim.run cairn.Workload.topo flows in
  let words = Gc.minor_words () -. before in
  let delivered = r.Mdr_netsim.Sim.total_delivered in
  let per_packet = words /. float_of_int delivered in
  Printf.printf
    "netsim: CAIRN MP seed 1, 60 s: %d packets delivered, %.0f minor words per packet\n"
    delivered per_packet;
  (delivered, per_packet)

(* Both results also go to BENCH_bechamel.json, in the report record
   every mdrsim benchmark writes. *)
let () =
  let micro = micro_benchmarks () in
  let delivered, words = packet_allocation () in
  let out = "BENCH_bechamel.json" in
  let report =
    Mdr_util.Json.(
      report ~benchmark:"bechamel"
        ~params:[ ("limit", Int 500); ("quota_s", Float 1.0) ]
        ~rows:
          (List.map (fun (name, ns) -> Obj [ ("name", String name); ("ns_per_run", Float ns) ]) micro
          @ [
              Obj
                [
                  ("name", String "netsim: CAIRN MP seed 1, 60 s");
                  ("delivered", Int delivered);
                  ("minor_words_per_packet", Float words);
                ];
            ])
        ~gates:[])
  in
  Out_channel.with_open_text out (fun oc -> output_string oc (Mdr_util.Json.to_string report));
  Printf.printf "wrote %s\n" out
