(* Tests for Mdr_topology: graph invariants, the reconstructed CAIRN
   and NET1 (including the paper's stated structural properties), and
   the random generators. *)

module Graph = Mdr_topology.Graph
module Metrics = Mdr_topology.Metrics
module Cairn = Mdr_topology.Cairn
module Net1 = Mdr_topology.Net1
module Generators = Mdr_topology.Generators
module Rng = Mdr_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small () =
  let g = Graph.create ~names:[| "a"; "b"; "c" |] in
  Graph.add_duplex g "a" "b" ~capacity:1e6 ~prop_delay:0.001;
  Graph.add_duplex g "b" "c" ~capacity:2e6 ~prop_delay:0.002;
  g

let test_create_and_lookup () =
  let g = small () in
  check_int "nodes" 3 (Graph.node_count g);
  check_int "links" 4 (Graph.link_count g);
  Alcotest.(check string) "name" "b" (Graph.name g 1);
  check_int "by name" 2 (Graph.node_of_name g "c")

let test_duplicate_name_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "Graph.create: duplicate router name x")
    (fun () -> ignore (Graph.create ~names:[| "x"; "x" |]))

let test_add_link_validation () =
  let g = small () in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_link: self-loop")
    (fun () -> Graph.add_link g ~src:0 ~dst:0 ~capacity:1e6 ~prop_delay:0.0);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Graph.add_link: capacity <= 0") (fun () ->
      Graph.add_link g ~src:0 ~dst:2 ~capacity:0.0 ~prop_delay:0.0);
  Graph.add_link g ~src:0 ~dst:2 ~capacity:1e6 ~prop_delay:0.001;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.add_link: duplicate link a -> c") (fun () ->
      Graph.add_link g ~src:0 ~dst:2 ~capacity:1e6 ~prop_delay:0.001)

let test_neighbors_order () =
  let g = small () in
  check "a nbrs" true (Graph.neighbors g 0 = [ 1 ]);
  check "b nbrs" true (Graph.neighbors g 1 = [ 0; 2 ])

let test_link_attrs () =
  let g = small () in
  let l = Graph.link_exn g ~src:1 ~dst:2 in
  check "cap" true (Float.equal l.capacity 2e6);
  check "delay" true (Float.equal l.prop_delay 0.002);
  check "missing" true (Graph.link g ~src:0 ~dst:2 = None)

let test_symmetry () =
  let g = small () in
  check "duplex symmetric" true (Graph.is_symmetric g);
  Graph.add_link g ~src:0 ~dst:2 ~capacity:1e6 ~prop_delay:0.001;
  check "one-way breaks symmetry" false (Graph.is_symmetric g)

(* One pair per link present both ways, in the order its [a -> b] link
   was added; a one-way link is left out. *)
let test_duplex_pairs () =
  let g = small () in
  Graph.add_link g ~src:0 ~dst:2 ~capacity:1e6 ~prop_delay:0.001;
  check "one-way a -> c left out" true (Graph.duplex_pairs g = [ (0, 1); (1, 2) ]);
  let h = Graph.create ~names:[| "a"; "b"; "c" |] in
  Graph.add_link h ~src:2 ~dst:0 ~capacity:1e6 ~prop_delay:0.001;
  Graph.add_duplex h "b" "c" ~capacity:1e6 ~prop_delay:0.001;
  Graph.add_link h ~src:0 ~dst:2 ~capacity:1e6 ~prop_delay:0.001;
  check "normalized, in a -> b insertion order" true (Graph.duplex_pairs h = [ (1, 2); (0, 2) ])

let test_bfs_distances () =
  let g = small () in
  let d = Metrics.hop_distances g 0 in
  check "d(a)=0" true (d.(0) = 0);
  check "d(b)=1" true (d.(1) = 1);
  check "d(c)=2" true (d.(2) = 2)

let test_diameter_small () =
  check_int "line diameter" 2 (Metrics.diameter (small ()))

let test_connectivity () =
  let g = small () in
  check "connected" true (Metrics.is_strongly_connected g);
  let g2 = Graph.create ~names:[| "a"; "b" |] in
  check "disconnected" false (Metrics.is_strongly_connected g2)

(* --- CAIRN ----------------------------------------------------------- *)

let test_cairn_basic () =
  let g = Cairn.topology () in
  check_int "router count" 26 (Graph.node_count g);
  check "symmetric" true (Graph.is_symmetric g);
  check "connected" true (Metrics.is_strongly_connected g)

let test_cairn_capacity_cap () =
  (* The paper caps link capacities at 10 Mb/s. *)
  let g = Cairn.topology () in
  check "max 10Mb/s" true
    (List.for_all (fun (l : Graph.link) -> l.capacity <= 10.0e6) (Graph.links g))

let test_cairn_flow_pairs () =
  let g = Cairn.topology () in
  let pairs = Cairn.flow_pairs g in
  check_int "eleven flows" 11 (List.length pairs);
  check "no self flows" true (List.for_all (fun (s, d) -> s <> d) pairs);
  (* The paper's pairs are symmetric in four cases: (sri,mit)/(mit,sri),
     (netstar,isi-e)/(isi-e,netstar), (parc,sdsc)/(sdsc,parc),
     (isi,darpa)/(darpa,isi). *)
  let mem (a, b) = List.mem (Graph.node_of_name g a, Graph.node_of_name g b) pairs in
  check "lbl->mci-r" true (mem ("lbl", "mci-r"));
  check "sri->mit" true (mem ("sri", "mit"));
  check "mit->sri" true (mem ("mit", "sri"));
  check "darpa->isi" true (mem ("darpa", "isi"))

let test_cairn_multipath () =
  (* Every simulated flow must have an alternate path, or MP could
     never beat SP. *)
  let g = Cairn.topology () in
  let pairs = Cairn.flow_pairs g in
  Alcotest.(check int)
    "all pairs have alternates" (List.length pairs)
    (Metrics.multipath_pairs g pairs)

(* --- NET1 ------------------------------------------------------------ *)

let test_net1_stated_properties () =
  (* Paper: flows run between nodes 0-9, diameter four, degrees 3-5. *)
  let g = Net1.topology () in
  check_int "ten routers" 10 (Graph.node_count g);
  check_int "diameter" 4 (Metrics.diameter g);
  let lo, hi = Metrics.degree_range g in
  check "min degree >= 3" true (lo >= 3);
  check "max degree <= 5" true (hi <= 5);
  check "symmetric" true (Graph.is_symmetric g)

let test_net1_flow_pairs () =
  let g = Net1.topology () in
  let pairs = Net1.flow_pairs g in
  check_int "ten flows" 10 (List.length pairs);
  check "paper pairs" true (List.mem (9, 2) pairs && List.mem (0, 7) pairs);
  Alcotest.(check int)
    "all pairs have alternates" (List.length pairs)
    (Metrics.multipath_pairs g pairs)

let test_net1_uniform_links () =
  let g = Net1.topology () in
  check "all 10Mb/s" true
    (List.for_all (fun (l : Graph.link) -> Float.equal l.capacity 10.0e6) (Graph.links g))

(* --- Generators ------------------------------------------------------ *)

let test_ring () =
  let g = Generators.ring ~n:6 ~capacity:1e6 ~prop_delay:0.001 in
  check_int "nodes" 6 (Graph.node_count g);
  check_int "links" 12 (Graph.link_count g);
  check_int "diameter" 3 (Metrics.diameter g)

let test_ring_too_small () =
  Alcotest.check_raises "n<3" (Invalid_argument "Generators.ring: n < 3")
    (fun () -> ignore (Generators.ring ~n:2 ~capacity:1e6 ~prop_delay:0.001))

let test_ring_with_chords () =
  let rng = Rng.create ~seed:1 in
  let g = Generators.ring_with_chords ~rng ~n:10 ~chords:5 ~capacity:1e6 ~prop_delay:0.001 in
  check "connected" true (Metrics.is_strongly_connected g);
  check "chords added" true (Graph.link_count g > 20)

let test_random_connected () =
  for seed = 1 to 20 do
    let rng = Rng.create ~seed in
    let g = Generators.random_connected ~rng ~n:12 ~extra_links:6 () in
    check "connected" true (Metrics.is_strongly_connected g);
    check "symmetric" true (Graph.is_symmetric g)
  done

let test_grid () =
  let g = Generators.grid ~rows:3 ~cols:4 ~capacity:1e6 ~prop_delay:0.001 in
  check_int "nodes" 12 (Graph.node_count g);
  check "connected" true (Metrics.is_strongly_connected g);
  check_int "diameter" 5 (Metrics.diameter g)

let prop_random_connected_always_connected =
  QCheck.Test.make ~name:"random_connected is strongly connected" ~count:50
    QCheck.(pair (int_range 2 30) (int_range 0 20))
    (fun (n, extra) ->
      let rng = Rng.create ~seed:(n + (31 * extra)) in
      (* Requests past the complete graph now raise; stay in contract. *)
      let extra = min extra ((n * (n - 1) / 2) - (n - 1)) in
      let g = Generators.random_connected ~rng ~n ~extra_links:extra () in
      Metrics.is_strongly_connected g && Graph.is_symmetric g)

(* --- Internet-like generators (scaling benchmarks) ------------------- *)

let test_generator_validation () =
  let rng = Rng.create ~seed:3 in
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "chords < 0" (fun () ->
      Generators.ring_with_chords ~rng ~n:5 ~chords:(-1) ~capacity:1e6
        ~prop_delay:0.001);
  raises "chords > complete" (fun () ->
      Generators.ring_with_chords ~rng ~n:5 ~chords:100 ~capacity:1e6
        ~prop_delay:0.001);
  raises "extra_links < 0" (fun () ->
      Generators.random_connected ~rng ~n:5 ~extra_links:(-2) ());
  raises "extra_links > complete" (fun () ->
      Generators.random_connected ~rng ~n:4 ~extra_links:50 ());
  raises "bad capacity range" (fun () ->
      Generators.random_connected ~rng ~n:5 ~extra_links:1
        ~capacity_range:(2.0, 1.0) ());
  raises "ba m < 1" (fun () -> Generators.barabasi_albert ~rng ~n:10 ~m:0 ());
  raises "ba n <= m" (fun () -> Generators.barabasi_albert ~rng ~n:3 ~m:3 ());
  raises "waxman beta" (fun () -> Generators.waxman ~rng ~n:10 ~beta:1.5 ());
  raises "waxman alpha" (fun () -> Generators.waxman ~rng ~n:10 ~alpha:0.0 ());
  raises "hier backbone" (fun () ->
      Generators.hierarchical ~rng ~areas:2 ~area_size:3 ~backbone:1 ())

let test_dense_chords_exact () =
  (* At full density the old rejection sampler looped forever or
     silently under-filled; the exact path must deliver the complete
     graph. *)
  let rng = Rng.create ~seed:9 in
  let n = 8 in
  let max_chords = (n * (n - 1) / 2) - n in
  let g =
    Generators.ring_with_chords ~rng ~n ~chords:max_chords ~capacity:1e6
      ~prop_delay:0.001
  in
  check_int "complete graph" (n * (n - 1)) (Graph.link_count g);
  check "connected" true (Metrics.is_strongly_connected g)

let prop_ba_connected_and_scale_free =
  QCheck.Test.make ~name:"barabasi_albert: connected, symmetric, heavy-tailed"
    ~count:30
    QCheck.(pair (int_range 10 80) (int_range 1 4))
    (fun (n, m) ->
      let rng = Rng.create ~seed:(n + (97 * m)) in
      let g = Generators.barabasi_albert ~rng ~n ~m () in
      let degree = Array.make n 0 in
      List.iter (fun (l : Graph.link) -> degree.(l.src) <- degree.(l.src) + 1)
        (Graph.links g);
      (* Preferential attachment concentrates degree: the max degree
         must clearly exceed the mean (no Erdos-Renyi flatness), and
         every node keeps at least its m attachment links. *)
      let dmax = Array.fold_left max 0 degree in
      let mean = float_of_int (2 * Graph.link_count g / 2) /. float_of_int n in
      Metrics.is_strongly_connected g && Graph.is_symmetric g
      && Array.for_all (fun d -> d >= min m (n - 1)) degree
      && (n < 30 || float_of_int dmax >= 1.5 *. mean))

let prop_waxman_connected =
  QCheck.Test.make ~name:"waxman: connected and symmetric" ~count:30
    QCheck.(int_range 2 120)
    (fun n ->
      let rng = Rng.create ~seed:(7 * n) in
      let g = Generators.waxman ~rng ~n () in
      Metrics.is_strongly_connected g && Graph.is_symmetric g)

let prop_hierarchical_structure =
  QCheck.Test.make
    ~name:"hierarchical: connected, symmetric, area-local (no inter-area links)"
    ~count:30
    QCheck.(triple (int_range 1 6) (int_range 1 8) (int_range 2 8))
    (fun (areas, area_size, backbone) ->
      let rng = Rng.create ~seed:(areas + (13 * area_size) + (131 * backbone)) in
      let g = Generators.hierarchical ~rng ~areas ~area_size ~backbone () in
      let area_of v = if v < backbone then -1 else (v - backbone) / area_size in
      (* Area-locality: links stay within one area, within the
         backbone, or between an area and the backbone — never between
         two distinct areas. *)
      let local =
        List.for_all
          (fun (l : Graph.link) ->
            let a = area_of l.src and b = area_of l.dst in
            a = -1 || b = -1 || a = b)
          (Graph.links g)
      in
      (* Intra-area connectivity: each area's induced subgraph is
         connected on its own (BFS inside the area). *)
      let area_connected a =
        let base = backbone + (a * area_size) in
        let seen = Array.make area_size false in
        let q = Queue.create () in
        Queue.add base q;
        seen.(0) <- true;
        let count = ref 1 in
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          List.iter
            (fun (l : Graph.link) ->
              if area_of l.dst = a && not (seen.(l.dst - base)) then begin
                seen.(l.dst - base) <- true;
                incr count;
                Queue.add l.dst q
              end)
            (Graph.out_links g v)
        done;
        !count = area_size
      in
      let all_areas_connected =
        List.for_all area_connected (List.init areas Fun.id)
      in
      Metrics.is_strongly_connected g && Graph.is_symmetric g && local
      && all_areas_connected)

let suite =
  [
    Alcotest.test_case "graph: create and lookup" `Quick test_create_and_lookup;
    Alcotest.test_case "graph: duplicate names rejected" `Quick test_duplicate_name_rejected;
    Alcotest.test_case "graph: link validation" `Quick test_add_link_validation;
    Alcotest.test_case "graph: neighbor order" `Quick test_neighbors_order;
    Alcotest.test_case "graph: link attributes" `Quick test_link_attrs;
    Alcotest.test_case "graph: symmetry check" `Quick test_symmetry;
    Alcotest.test_case "metrics: BFS distances" `Quick test_bfs_distances;
    Alcotest.test_case "metrics: diameter" `Quick test_diameter_small;
    Alcotest.test_case "metrics: connectivity" `Quick test_connectivity;
    Alcotest.test_case "cairn: structure" `Quick test_cairn_basic;
    Alcotest.test_case "cairn: 10Mb/s capacity cap" `Quick test_cairn_capacity_cap;
    Alcotest.test_case "cairn: the paper's flow pairs" `Quick test_cairn_flow_pairs;
    Alcotest.test_case "cairn: flows have alternate paths" `Quick test_cairn_multipath;
    Alcotest.test_case "net1: paper-stated properties" `Quick test_net1_stated_properties;
    Alcotest.test_case "net1: flow pairs" `Quick test_net1_flow_pairs;
    Alcotest.test_case "net1: uniform links" `Quick test_net1_uniform_links;
    Alcotest.test_case "generators: ring" `Quick test_ring;
    Alcotest.test_case "generators: ring bounds" `Quick test_ring_too_small;
    Alcotest.test_case "generators: ring with chords" `Quick test_ring_with_chords;
    Alcotest.test_case "generators: random connected" `Quick test_random_connected;
    Alcotest.test_case "generators: grid" `Quick test_grid;
    Alcotest.test_case "generators: argument validation" `Quick
      test_generator_validation;
    Alcotest.test_case "generators: dense chords fill exactly" `Quick
      test_dense_chords_exact;
    QCheck_alcotest.to_alcotest prop_random_connected_always_connected;
    QCheck_alcotest.to_alcotest prop_ba_connected_and_scale_free;
    QCheck_alcotest.to_alcotest prop_waxman_connected;
    QCheck_alcotest.to_alcotest prop_hierarchical_structure;
    Alcotest.test_case "graph: duplex pairs leave one-way links out" `Quick
      test_duplex_pairs;
  ]
