(* The fluid layer's evaluation path: bit-for-bit pins of the OPT, MP,
   SP and ECMP results the figures print, and a differential property
   of [Flows.compute] against the list-and-Hashtbl reference solver in
   [Ref_flows]. *)

module Graph = Mdr_topology.Graph
module Rng = Mdr_util.Rng
module Params = Mdr_fluid.Params
module Flows = Mdr_fluid.Flows
module Traffic = Mdr_fluid.Traffic
module Evaluate = Mdr_fluid.Evaluate
module Gallager = Mdr_gallager.Gallager
module Controller = Mdr_core.Controller
module Workload = Mdr_experiments.Workload

(* --- Pins ---------------------------------------------------------------- *)

(* Figure 9's controller settings. *)
let fig9_config scheme = { Controller.scheme; rounds = 60; ts_per_tl = 8; damping = 0.5 }

let hist_digest values =
  Digest.to_hex (Digest.string (String.concat " " (List.map (Printf.sprintf "%h") values)))

(* Every value is printed with [%h], so a pin holds only if the bits
   do. *)
let pin_lines () =
  let b = Buffer.create 16384 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  let gallager tag name (r : Gallager.result) =
    line "%s %s avg=%h cost=%h iters=%d conv=%b history=%s" tag name r.avg_delay
      r.total_cost r.iterations r.converged (hist_digest r.history)
  in
  let per_flow tag name model params flows traffic =
    List.iter
      (fun ((f : Traffic.flow), d) -> line "%s %s flow %d->%d %h" tag name f.src f.dst d)
      (Evaluate.per_flow_delays model params flows traffic)
  in
  let case (w : Workload.t) =
    let model = Workload.model w and traffic = Workload.traffic w and topo = w.topo in
    let tag = Printf.sprintf "%s@%.1f" w.name w.load in
    let spf = Gallager.spf_params model topo in
    let fl = Flows.compute spf traffic in
    List.iter
      (fun (l : Graph.link) ->
        line "%s spf link %d->%d %h" tag l.src l.dst (Flows.link_flow fl ~src:l.src ~dst:l.dst))
      (Graph.links topo);
    let opt = Gallager.solve model topo traffic in
    gallager tag "opt" opt;
    per_flow tag "opt" model opt.params opt.flows traffic;
    List.iter
      (fun (name, scheme) ->
        let r = Controller.run ~config:(fig9_config scheme) model topo traffic in
        line "%s %s avg=%h cost=%h history=%s" tag name r.avg_delay r.total_cost
          (hist_digest r.delay_history);
        if scheme = Controller.Mp then per_flow tag name model r.params r.flows traffic)
      [ ("mp", Controller.Mp); ("sp", Controller.Sp); ("ecmp", Controller.Ecmp) ]
  in
  case (Workload.cairn ~load:1.0);
  case (Workload.net1 ~load:1.0);
  case (Workload.net1 ~load:1.2);
  (* The abl-2nd and abl-eta paths. *)
  let w = Workload.net1 ~load:1.2 in
  let model = Workload.model w and traffic = Workload.traffic w in
  gallager "NET1@1.2" "second-order"
    (Gallager.solve ~second_order:true ~eta:1.0 model w.topo traffic);
  List.iter
    (fun eta ->
      gallager "NET1@1.2" (Printf.sprintf "fixed-eta-%.0e" eta)
        (Gallager.solve ~eta ~adaptive:false ~max_iters:200 model w.topo traffic))
    [ 1.0e4; 1.0e6 ];
  String.split_on_char '\n' (Buffer.contents b) |> List.filter (fun s -> s <> "")

let fixture name =
  List.find Sys.file_exists [ "fixtures/" ^ name; "test/fixtures/" ^ name ]

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun s -> s <> "")

let test_pins () =
  Alcotest.(check (list string))
    "fluid results bit for bit" (read_lines (fixture "fluid_pin.txt")) (pin_lines ())

(* --- Differential oracle ------------------------------------------------- *)

let graphs =
  lazy
    (let rng = Rng.create ~seed:31 in
     [|
       Mdr_topology.Cairn.topology ();
       Mdr_topology.Net1.topology ();
       Mdr_topology.Generators.barabasi_albert ~rng ~n:24 ~m:2 ();
       Mdr_topology.Generators.waxman ~rng ~n:20 ();
       Mdr_topology.Generators.ring_with_chords ~rng ~n:12 ~chords:4 ~capacity:1.0e7
         ~prop_delay:0.002;
     |])

(* Routes every destination on a random DAG: a random rank with the
   destination lowest, and each router splits over a random non-empty
   subset of its lower-ranked neighbors (or stays unrouted). With
   [leaky_cycles], each router instead keeps its BFS parent toward the
   destination and adds random other neighbors, which makes cycles
   that still drain. *)
let random_params rng topo ~leaky_cycles =
  let n = Graph.node_count topo in
  let p = Params.create topo in
  for dst = 0 to n - 1 do
    let rank = Array.init n Fun.id in
    Rng.shuffle rng rank;
    rank.(dst) <- -1;
    let parent = Array.make n (-1) in
    if leaky_cycles then begin
      let q = Queue.create () in
      Queue.add dst q;
      parent.(dst) <- dst;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        List.iter
          (fun u ->
            if parent.(u) < 0 && Graph.link topo ~src:u ~dst:v <> None then begin
              parent.(u) <- v;
              Queue.add u q
            end)
          (Graph.neighbors topo v)
      done
    end;
    for node = 0 to n - 1 do
      if node <> dst && Rng.int rng ~bound:10 > 0 then begin
        let nbrs = Graph.neighbors topo node in
        let allowed =
          if leaky_cycles then nbrs else List.filter (fun k -> rank.(k) < rank.(node)) nbrs
        in
        let chosen = List.filter (fun _ -> Rng.int rng ~bound:2 = 0) allowed in
        let chosen =
          if leaky_cycles && parent.(node) >= 0 then
            parent.(node) :: List.filter (fun k -> k <> parent.(node)) chosen
          else if chosen = [] && allowed <> [] then
            [ List.nth allowed (Rng.int rng ~bound:(List.length allowed)) ]
          else chosen
        in
        let weights = List.map (fun k -> (k, Rng.uniform rng ~lo:0.05 ~hi:1.0)) chosen in
        let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights in
        if weights <> [] then
          Params.set_fractions p ~node ~dst (List.map (fun (k, w) -> (k, w /. total)) weights)
      end
    done
  done;
  p

let random_traffic rng n =
  let flows = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst && Rng.int rng ~bound:4 = 0 then
        flows := { Traffic.src; dst; rate = Rng.uniform rng ~lo:0.0 ~hi:100.0 } :: !flows
    done
  done;
  Traffic.of_flows ~n !flows

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let order params ~dst =
  try Some (Flows.topological_order params ~dst) with Flows.Cyclic_routing _ -> None

let ref_order params ~dst =
  try Some (Ref_flows.topological_order params ~dst) with Ref_flows.Cyclic_routing _ -> None

let agrees ~leaky_cycles seed =
  let gs = Lazy.force graphs in
  let topo = gs.(seed mod Array.length gs) in
  let n = Graph.node_count topo in
  let rng = Rng.create ~seed in
  let params = random_params rng topo ~leaky_cycles in
  let traffic = random_traffic rng n in
  let iterative_fallback = leaky_cycles in
  let got = Flows.compute ~iterative_fallback params traffic in
  let want = Ref_flows.compute ~iterative_fallback params traffic in
  let nodes_ok =
    Array.for_all2 (Array.for_all2 same_bits) got.Flows.node_flows want.Ref_flows.node_flows
  in
  let links_ok =
    List.for_all
      (fun (l : Graph.link) ->
        same_bits
          (Flows.link_flow got ~src:l.src ~dst:l.dst)
          (Ref_flows.link_flow want ~src:l.src ~dst:l.dst))
      (Graph.links topo)
  in
  let orders_ok =
    List.for_all
      (fun dst -> order params ~dst = ref_order params ~dst)
      (List.init n Fun.id)
  in
  nodes_ok && links_ok && orders_ok

let prop_flows_match_reference =
  QCheck.Test.make ~name:"flows and order equal the reference on random DAGs" ~count:150
    QCheck.small_nat
    (agrees ~leaky_cycles:false)

let prop_flows_match_reference_cyclic =
  QCheck.Test.make ~name:"iterative fallback equals the reference on leaky cycles"
    ~count:40 QCheck.small_nat
    (agrees ~leaky_cycles:true)

(* --- Allocation budgets ---------------------------------------------------- *)

(* Minor words of one call after a warm-up call, read with
   [Gc.minor_words]: [Gc.counters]' minor figure lags on OCaml 5.1.
   Every block these calls allocate is small, so none goes straight to
   the major heap. *)
let minor_words f =
  ignore (f ());
  let before = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. before

let within_budget what ~budget words =
  if words > budget then Alcotest.failf "%s allocated %.0f minor words, budget %.0f" what words budget

(* 868 words: the node-flow matrix, the link-flow array and the two
   order buffers. *)
let test_flows_budget () =
  let w = Workload.cairn ~load:1.0 in
  let traffic = Workload.traffic w in
  let params = Gallager.spf_params (Workload.model w) w.topo in
  within_budget "CAIRN Flows.compute" ~budget:1_000.0
    (minor_words (fun () -> Flows.compute params traffic))

(* 25,923 words for five iterations, SPF start-up included. *)
let test_gallager_budget () =
  let w = Workload.net1 ~load:1.2 in
  let model = Workload.model w and traffic = Workload.traffic w in
  let solve () = Gallager.solve ~max_iters:5 model w.topo traffic in
  Alcotest.(check int) "five iterations run" 5 (solve ()).iterations;
  within_budget "NET1 5-iteration Gallager.solve" ~budget:30_000.0 (minor_words solve)

(* One CAIRN MP and one SP run at Figure 9's settings, and one CAIRN
   load-1.0 solve (377 iterations): 2,692,420, 1,460,008 and 2,106,512
   words, each budget about 10% above. AH runs in place on the φ rows,
   SP repeats its round's first step instead of recomputing it, and
   the solve reuses an accepted step's flows; with the list-based AH,
   every step recomputed and each iteration's flows computed twice,
   they were 8,842,788, 3,296,010 and 2,562,974. *)
let cairn_run_words scheme =
  let w = Workload.cairn ~load:1.0 in
  let model = Workload.model w and traffic = Workload.traffic w in
  minor_words (fun () -> Controller.run ~config:(fig9_config scheme) model w.topo traffic)

let test_mp_run_budget () =
  within_budget "CAIRN MP Controller.run" ~budget:2_960_000.0 (cairn_run_words Controller.Mp)

let test_sp_run_budget () =
  within_budget "CAIRN SP Controller.run" ~budget:1_600_000.0 (cairn_run_words Controller.Sp)

let test_cairn_solve_budget () =
  let w = Workload.cairn ~load:1.0 in
  let model = Workload.model w and traffic = Workload.traffic w in
  within_budget "CAIRN Gallager.solve" ~budget:2_320_000.0
    (minor_words (fun () -> Gallager.solve model w.topo traffic))

let suite =
  [
    Alcotest.test_case "pins: OPT/MP/SP/ECMP on CAIRN and NET1" `Quick test_pins;
    QCheck_alcotest.to_alcotest prop_flows_match_reference;
    QCheck_alcotest.to_alcotest prop_flows_match_reference_cyclic;
    Alcotest.test_case "allocation budget: CAIRN Flows.compute" `Quick test_flows_budget;
    Alcotest.test_case "allocation budget: NET1 5-iteration solve" `Quick test_gallager_budget;
    Alcotest.test_case "allocation budget: CAIRN MP run" `Quick test_mp_run_budget;
    Alcotest.test_case "allocation budget: CAIRN SP run" `Quick test_sp_run_budget;
    Alcotest.test_case "allocation budget: CAIRN solve" `Quick test_cairn_solve_budget;
  ]
