(* Tests for the MP framework core: the IH and AH heuristics
   (Property 1 preservation, balancing behaviour) and the two-timescale
   fluid controller (near-optimality, SP restriction, loop-freedom). *)

module Graph = Mdr_topology.Graph
module Fluid = Mdr_fluid
module Heuristics = Mdr_core.Heuristics
module Controller = Mdr_core.Controller
module Gallager = Mdr_gallager.Gallager

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let pkt = 4096.0

(* --- IH --------------------------------------------------------------- *)

let test_ih_single_successor () =
  check "all to one" true (Heuristics.initial [ (7, 3.0) ] = [ (7, 1.0) ])

let test_ih_two_successors () =
  (* a = (1, 3): phi = (0.75, 0.25). *)
  match Heuristics.initial [ (1, 1.0); (2, 3.0) ] with
  | [ (1, p1); (2, p2) ] ->
    check_float "p1" 0.75 p1;
    check_float "p2" 0.25 p2
  | _ -> Alcotest.fail "unexpected shape"

let test_ih_equal_distances_equal_split () =
  match Heuristics.initial [ (1, 2.0); (2, 2.0); (3, 2.0) ] with
  | entries ->
    List.iter (fun (_, p) -> check_float "third" (1.0 /. 3.0) p) entries

let test_ih_is_distribution () =
  check "distribution" true
    (Heuristics.is_distribution (Heuristics.initial [ (1, 0.5); (2, 1.5); (3, 9.0) ]))

let test_ih_monotone () =
  (* Greater marginal distance gets a smaller share. *)
  match Heuristics.initial [ (1, 1.0); (2, 2.0); (3, 4.0) ] with
  | [ (_, p1); (_, p2); (_, p3) ] ->
    check "p1 > p2" true (p1 > p2);
    check "p2 > p3" true (p2 > p3)
  | _ -> Alcotest.fail "unexpected shape"

let test_ih_rejects_bad_input () =
  check "empty raises" true
    (try
       ignore (Heuristics.initial []);
       false
     with Invalid_argument _ -> true);
  check "non-positive raises" true
    (try
       ignore (Heuristics.initial [ (1, 0.0); (2, 1.0) ]);
       false
     with Invalid_argument _ -> true)

(* --- AH --------------------------------------------------------------- *)

let test_ah_moves_toward_best () =
  let current = [ (1, 0.5); (2, 0.5) ] in
  let through = function 1 -> 1.0 | 2 -> 3.0 | _ -> infinity in
  match Heuristics.adjust ~current ~through () with
  | entries ->
    let p1 = List.assoc 1 entries in
    check "best gains" true (p1 > 0.5);
    check "distribution" true (Heuristics.is_distribution entries)

let test_ah_fixpoint_when_balanced () =
  (* Equal marginal distances: nothing moves. *)
  let current = [ (1, 0.3); (2, 0.7) ] in
  let through = fun _ -> 2.0 in
  let result = Heuristics.adjust ~current ~through () in
  check_float "p1 unchanged" 0.3 (List.assoc 1 result);
  check_float "p2 unchanged" 0.7 (List.assoc 2 result)

let test_ah_drains_worst () =
  (* Full step empties the successor with the smallest phi/excess. *)
  let current = [ (1, 0.5); (2, 0.5) ] in
  let through = function 1 -> 1.0 | 2 -> 2.0 | _ -> infinity in
  let result = Heuristics.adjust ~current ~through () in
  check "worst drained" true (not (List.mem_assoc 2 result));
  check_float "all on best" 1.0 (List.assoc 1 result)

let test_ah_damping_partial () =
  let current = [ (1, 0.5); (2, 0.5) ] in
  let through = function 1 -> 1.0 | 2 -> 2.0 | _ -> infinity in
  let result = Heuristics.adjust ~damping:0.5 ~current ~through () in
  check_float "half moved" 0.75 (List.assoc 1 result);
  check_float "half left" 0.25 (List.assoc 2 result)

let test_ah_single_entry_unchanged () =
  let current = [ (4, 1.0) ] in
  check "unchanged" true (Heuristics.adjust ~current ~through:(fun _ -> 1.0) () == current)

let test_ah_repeated_application_converges () =
  (* Iterating AH with fixed through values concentrates on the best. *)
  let through = function 1 -> 1.0 | 2 -> 1.5 | 3 -> 2.0 | _ -> infinity in
  let rec iterate current n =
    if n = 0 then current
    else iterate (Heuristics.adjust ~current ~through ()) (n - 1)
  in
  let final = iterate [ (1, 0.2); (2, 0.3); (3, 0.5) ] 10 in
  check_float "all mass on best" 1.0 (List.assoc 1 final)

let prop_ah_preserves_distribution =
  QCheck.Test.make ~name:"AH preserves Property 1" ~count:300
    QCheck.(triple (float_range 0.01 0.99) (float_range 0.1 10.0) (float_range 0.1 10.0))
    (fun (split, d1, d2) ->
      let current = [ (1, split); (2, 1.0 -. split) ] in
      let through = function 1 -> d1 | 2 -> d2 | _ -> infinity in
      Heuristics.is_distribution (Heuristics.adjust ~current ~through ()))

let prop_ih_preserves_distribution =
  QCheck.Test.make ~name:"IH yields a distribution" ~count:300
    QCheck.(list_of_size Gen.(1 -- 6) (float_range 0.1 100.0))
    (fun dists ->
      let entries = List.mapi (fun i d -> (i, d)) dists in
      Heuristics.is_distribution (Heuristics.initial entries))

(* --- Controller -------------------------------------------------------- *)

let net1_setup load =
  let g = Mdr_topology.Net1.topology () in
  let model = Fluid.Evaluate.model g ~packet_size:pkt in
  let traffic =
    Fluid.Traffic.of_pairs_bits ~n:10 ~packet_size:pkt
      ~rate_bits:(fun i -> load *. (2.0 +. (0.1 *. float_of_int i)) *. 1.0e6)
      (Mdr_topology.Net1.flow_pairs g)
  in
  (g, model, traffic)

let test_mp_close_to_opt_per_flow () =
  (* Figure 10's claim in the fluid model: MP's per-flow delays within
     a small envelope of OPT. *)
  let g, model, traffic = net1_setup 1.0 in
  let opt = Gallager.solve model g traffic in
  let mp =
    Controller.run
      ~config:{ Controller.scheme = Mp; rounds = 40; ts_per_tl = 5; damping = 1.0 }
      model g traffic
  in
  let od = Fluid.Evaluate.per_flow_delays model opt.params opt.flows traffic in
  let md = Fluid.Evaluate.per_flow_delays model mp.params mp.flows traffic in
  List.iter2
    (fun (_, o) (_, m) -> check "within 8% envelope" true (m <= o *. 1.08))
    od md

let test_mp_loop_free_every_destination () =
  let g, model, traffic = net1_setup 1.2 in
  let mp = Controller.run model g traffic in
  check "acyclic" true
    (List.for_all
       (fun dst -> Fluid.Params.successor_graph_is_acyclic mp.params ~dst)
       (Graph.nodes g));
  check "valid params" true (Fluid.Params.validate mp.params = Ok ())

let test_sp_single_successor_everywhere () =
  let g, model, traffic = net1_setup 1.0 in
  let sp =
    Controller.run
      ~config:{ Controller.scheme = Sp; rounds = 10; ts_per_tl = 1; damping = 1.0 }
      model g traffic
  in
  let ok = ref true in
  List.iter
    (fun dst ->
      List.iter
        (fun node ->
          if node <> dst then
            let s = Fluid.Params.successors sp.params ~node ~dst in
            if List.length s > 1 then ok := false)
        (Graph.nodes g))
    (Fluid.Traffic.destinations traffic);
  check "single path" true !ok

let test_mp_beats_ih_only () =
  (* The load-balancing ablation: AH steps (ts_per_tl > 1) must beat
     IH-only routing at equal horizon. *)
  let g, model, traffic = net1_setup 1.5 in
  let with_ah =
    Controller.run
      ~config:{ Controller.scheme = Mp; rounds = 40; ts_per_tl = 5; damping = 0.5 }
      model g traffic
  in
  let ih_only =
    Controller.run
      ~config:{ Controller.scheme = Mp; rounds = 40; ts_per_tl = 1; damping = 0.5 }
      model g traffic
  in
  check "AH improves on IH alone" true (with_ah.avg_delay <= ih_only.avg_delay)

let test_mp_never_worse_than_sp_under_load () =
  let g, model, traffic = net1_setup 1.5 in
  let mp =
    Controller.run
      ~config:{ Controller.scheme = Mp; rounds = 40; ts_per_tl = 5; damping = 0.5 }
      model g traffic
  in
  let sp =
    Controller.run
      ~config:{ Controller.scheme = Sp; rounds = 40; ts_per_tl = 1; damping = 0.5 }
      model g traffic
  in
  check "mp <= sp at high load" true (mp.avg_delay <= sp.avg_delay *. 1.05)

let test_ecmp_even_split_on_symmetric_paths () =
  (* Two exactly equal paths: ECMP splits evenly and AH leaves the
     split alone. *)
  let g = Graph.create ~names:[| "s"; "a"; "b"; "d" |] in
  List.iter
    (fun (x, y) -> Graph.add_duplex g x y ~capacity:10.0e6 ~prop_delay:0.001)
    [ ("s", "a"); ("a", "d"); ("s", "b"); ("b", "d") ];
  let model = Fluid.Evaluate.model g ~packet_size:pkt in
  let traffic =
    Fluid.Traffic.of_pairs_bits ~n:4 ~packet_size:pkt
      ~rate_bits:(fun _ -> 6.0e6)
      [ (0, 3) ]
  in
  let r =
    Controller.run
      ~config:{ Controller.scheme = Ecmp; rounds = 10; ts_per_tl = 4; damping = 1.0 }
      model g traffic
  in
  Alcotest.(check (float 1e-9)) "half via a" 0.5
    (Fluid.Params.fraction r.params ~node:0 ~dst:3 ~via:1);
  Alcotest.(check (float 1e-9)) "half via b" 0.5
    (Fluid.Params.fraction r.params ~node:0 ~dst:3 ~via:2)

let test_ecmp_single_path_when_costs_differ () =
  (* Unequal-cost paths: ECMP collapses to the single best. *)
  let g = Graph.create ~names:[| "s"; "a"; "b"; "d" |] in
  List.iter
    (fun (x, y, ms) -> Graph.add_duplex g x y ~capacity:10.0e6 ~prop_delay:(ms /. 1000.0))
    [ ("s", "a", 1.0); ("a", "d", 1.0); ("s", "b", 2.0); ("b", "d", 2.0) ];
  let model = Fluid.Evaluate.model g ~packet_size:pkt in
  let traffic =
    Fluid.Traffic.of_pairs_bits ~n:4 ~packet_size:pkt
      ~rate_bits:(fun _ -> 2.0e6)
      [ (0, 3) ]
  in
  let r =
    Controller.run
      ~config:{ Controller.scheme = Ecmp; rounds = 5; ts_per_tl = 1; damping = 1.0 }
      model g traffic
  in
  check "single successor" true
    (List.length (Fluid.Params.successors r.params ~node:0 ~dst:3) = 1)

let test_controller_history_length () =
  let g, model, traffic = net1_setup 0.5 in
  let r =
    Controller.run
      ~config:{ Controller.scheme = Mp; rounds = 7; ts_per_tl = 3; damping = 1.0 }
      model g traffic
  in
  Alcotest.(check int) "history = rounds * steps" 21 (List.length r.delay_history)

let test_controller_rejects_bad_config () =
  let g, model, traffic = net1_setup 0.5 in
  check "rounds < 1" true
    (try
       ignore
         (Controller.run
            ~config:{ Controller.scheme = Mp; rounds = 0; ts_per_tl = 1; damping = 1.0 }
            model g traffic);
       false
     with Invalid_argument _ -> true)

(* A router's neighbor order is its links' insertion order, and it
   must not change what MP does: the controller re-seeds a pair with
   IH only when its successor set changes, whatever order the members
   are listed in. CAIRN with its links re-added in ascending (src, dst)
   order, under Figure 9's controller settings, gives the same bits. *)
let test_mp_independent_of_link_order () =
  let w = Mdr_experiments.Workload.cairn ~load:1.0 in
  let sorted =
    let g = Graph.create ~names:(Array.init (Graph.node_count w.topo) (Graph.name w.topo)) in
    List.sort (fun (a : Graph.link) b -> compare (a.src, a.dst) (b.src, b.dst)) (Graph.links w.topo)
    |> List.iter (fun (l : Graph.link) ->
           Graph.add_link g ~src:l.src ~dst:l.dst ~capacity:l.capacity ~prop_delay:l.prop_delay);
    g
  in
  let traffic = Mdr_experiments.Workload.traffic w in
  let mp topo =
    let model = Fluid.Evaluate.model topo ~packet_size:Mdr_experiments.Workload.packet_size in
    (Controller.run
       ~config:{ Controller.scheme = Mp; rounds = 60; ts_per_tl = 8; damping = 0.5 }
       model topo traffic)
      .avg_delay
  in
  let built = mp w.topo and resorted = mp sorted in
  if not (Int64.equal (Int64.bits_of_float built) (Int64.bits_of_float resorted)) then
    Alcotest.failf "MP avg delay %.9f ms as built, %.9f ms with sorted links" (1000.0 *. built)
      (1000.0 *. resorted)

(* The controller's candidates toward a destination are the neighbors
   closer to it (Eq. 14); under MP the shared choice keeps them all. *)
let test_successor_sets () =
  let g, _model, _ = net1_setup 1.0 in
  let dist = Mdr_routing.Dijkstra.distances_to g ~dst:0 ~cost:(fun _ -> 1.0) in
  let succ node =
    let closer = List.filter (fun k -> dist.(k) < dist.(node)) (Graph.neighbors g node) in
    Heuristics.choose Mp ~through:(fun k -> dist.(k) +. 1.0) closer
  in
  check "dst has none" true (succ 0 = []);
  check "direct neighbor" true (List.mem 0 (succ 1))

let test_ah_reaches_perfect_balance_closed_loop () =
  (* Closed loop on the diamond: AH adjusts, flows respond, marginals
     re-measured — the fixpoint must satisfy the perfect-load-balancing
     conditions (Eqs. 10-12) restricted to the successor set: both
     successor marginal distances equal. *)
  let g = Graph.create ~names:[| "s"; "a"; "b"; "d" |] in
  List.iter
    (fun (x, y, cap) -> Graph.add_duplex g x y ~capacity:cap ~prop_delay:0.001)
    [ ("s", "a", 10.0e6); ("a", "d", 10.0e6); ("s", "b", 5.0e6); ("b", "d", 5.0e6) ];
  let model = Fluid.Evaluate.model g ~packet_size:pkt in
  let traffic =
    Fluid.Traffic.of_pairs_bits ~n:4 ~packet_size:pkt
      ~rate_bits:(fun _ -> 9.0e6)
      [ (0, 3) ]
  in
  let params = Fluid.Params.create g in
  Fluid.Params.set_fractions params ~node:0 ~dst:3 [ (1, 0.5); (2, 0.5) ];
  Fluid.Params.set_single params ~node:1 ~dst:3 ~via:3;
  Fluid.Params.set_single params ~node:2 ~dst:3 ~via:3;
  let marginal_through flows k =
    (* marginal distance via k: link (0,k) marginal + link (k,3) marginal *)
    Fluid.Evaluate.link_cost model flows ~src:0 ~dst:k
    +. Fluid.Evaluate.link_cost model flows ~src:k ~dst:3
  in
  (* With instantaneous flow response AH settles into a small limit
     cycle around the balanced point (real queues smooth this; the
     packet-level tests cover that), so assert the *time-averaged*
     state over the tail of the run. *)
  let phi_sum = ref 0.0 and gap_sum = ref 0.0 and samples = ref 0 in
  for i = 1 to 300 do
    let flows = Fluid.Flows.compute params traffic in
    let current = Fluid.Params.fractions params ~node:0 ~dst:3 in
    if List.length current > 1 then begin
      let adjusted =
        Heuristics.adjust ~damping:0.05 ~current ~through:(marginal_through flows) ()
      in
      Fluid.Params.set_fractions params ~node:0 ~dst:3 adjusted
    end;
    if i > 150 then begin
      let flows = Fluid.Flows.compute params traffic in
      let m1 = marginal_through flows 1 and m2 = marginal_through flows 2 in
      phi_sum := !phi_sum +. Fluid.Params.fraction params ~node:0 ~dst:3 ~via:1;
      gap_sum := !gap_sum +. (Float.abs (m1 -. m2) /. Float.max m1 m2);
      incr samples
    end
  done;
  let mean_phi = !phi_sum /. float_of_int !samples in
  let mean_gap = !gap_sum /. float_of_int !samples in
  check "marginals near-equal on average (Eq. 11)" true (mean_gap < 0.15);
  (* Perfect balance puts ~72% on the fat path (solve C1/(C1-f1)^2 =
     C2/(C2-f2)^2 with f1 + f2 = 2197 pkt/s). *)
  check "split near the balanced point" true (mean_phi > 0.65 && mean_phi < 0.80)

(* --- The shared forwarding policy ------------------------------------- *)

let marginal table k = List.assoc k table

let test_policy_sp_tie () =
  let through = marginal [ (4, 2.0); (2, 1.0); (7, 1.0); (1, infinity) ] in
  Alcotest.(check (list int)) "first minimum in the caller's order" [ 2 ]
    (Heuristics.choose Sp ~through [ 4; 2; 7; 1 ]);
  Alcotest.(check (list int)) "reversed order, other winner" [ 7 ]
    (Heuristics.choose Sp ~through [ 1; 7; 2; 4 ])

let test_policy_ecmp_tolerance () =
  let best = 3.0 in
  let bound = best *. (1.0 +. 1e-9) in
  let through = marginal [ (1, bound); (2, best); (3, Float.succ bound); (4, nan) ] in
  Alcotest.(check (list int)) "kept at the bound, dropped just above" [ 1; 2 ]
    (Heuristics.choose Ecmp ~through [ 1; 2; 3; 4 ]);
  check "even split" true
    (Heuristics.seed Ecmp ~through [ 1; 2 ] = [ (1, 0.5); (2, 0.5) ])

let test_policy_mp_ih_skips_bad_marginals () =
  let through = marginal [ (1, 1.0); (2, infinity); (3, 3.0); (4, 0.0); (5, nan) ] in
  Alcotest.(check (list int)) "MP keeps every candidate" [ 1; 2; 3; 4; 5 ]
    (Heuristics.choose Mp ~through [ 1; 2; 3; 4; 5 ]);
  check "IH over the finite positive a_k" true
    (Heuristics.seed Mp ~through [ 1; 2; 3; 4; 5 ]
    = Heuristics.initial [ (1, 1.0); (3, 3.0) ]);
  check "one usable a_k takes everything" true (Heuristics.seed Mp ~through [ 2; 3; 4 ] = [ (3, 1.0) ]);
  check "no usable a_k, no route" true (Heuristics.seed Mp ~through [ 2; 4; 5 ] = [])

let test_policy_no_route () =
  let through _ = infinity in
  List.iter
    (fun scheme ->
      check "no candidates" true (Heuristics.choose scheme ~through:(fun _ -> 1.0) [] = []);
      check "nothing to seed" true (Heuristics.seed scheme ~through [] = []))
    [ Heuristics.Mp; Sp; Ecmp ];
  check "SP: no finite a_k" true (Heuristics.choose Sp ~through [ 1; 2 ] = []);
  check "ECMP: no finite a_k" true (Heuristics.choose Ecmp ~through [ 1; 2 ] = []);
  check "a single successor takes everything" true
    (Heuristics.seed Sp ~through:(fun _ -> 1.0) [ 3 ] = [ (3, 1.0) ])

let test_policy_ah_only_mp () =
  check "MP" true (Heuristics.uses_ah Mp);
  check "SP" false (Heuristics.uses_ah Sp);
  check "ECMP" false (Heuristics.uses_ah Ecmp)

(* --- AH against its reference ----------------------------------------- *)

(* One AH input drawn from [seed]: 2-6 successors with distinct ids in
   a shuffled caller order, a distribution over them, their marginal
   distances, and a damping of 0.05, 0.5 or 1.0. [seed mod 6] picks the
   shape of the a_k: 0 random, 1 a tied minimum (k0 must be the first
   of the tie in caller order), 2 all equal (infinite eta, nothing
   moves), 3 one infinite a_k, 4 all infinite (non-finite d_min), 5
   random with one fraction within 1e-12 of being drained. *)
type ah_case = {
  ids : int array;
  fracs : float array;
  marginals : float array;
  damping : float;
}

let ah_case seed =
  let rng = Mdr_util.Rng.create ~seed in
  let m = 2 + Mdr_util.Rng.int rng ~bound:5 in
  let pool = Array.init 8 (fun i -> i + 1) in
  Mdr_util.Rng.shuffle rng pool;
  let ids = Array.sub pool 0 m in
  let weights = Array.init m (fun _ -> Mdr_util.Rng.uniform rng ~lo:0.05 ~hi:1.0) in
  let random () = Mdr_util.Rng.uniform rng ~lo:0.1 ~hi:10.0 in
  let marginals = Array.init m (fun _ -> random ()) in
  (match seed mod 6 with
   | 1 ->
     let lo = Array.fold_left Float.min infinity marginals /. 2.0 in
     let i = Mdr_util.Rng.int rng ~bound:m in
     let j = (i + 1 + Mdr_util.Rng.int rng ~bound:(m - 1)) mod m in
     marginals.(i) <- lo;
     marginals.(j) <- lo
   | 2 -> Array.fill marginals 0 m (random ())
   | 3 -> marginals.(Mdr_util.Rng.int rng ~bound:m) <- infinity
   | 4 -> Array.fill marginals 0 m infinity
   | 5 ->
     let best = ref 0 in
     Array.iteri (fun i a -> if a < marginals.(!best) then best := i) marginals;
     let i = (!best + 1 + Mdr_util.Rng.int rng ~bound:(m - 1)) mod m in
     weights.(i) <- [| 1e-13; 1e-12; 2e-12 |].(Mdr_util.Rng.int rng ~bound:3)
   | _ -> ());
  let total = Array.fold_left ( +. ) 0.0 weights in
  {
    ids;
    fracs = Array.map (fun w -> w /. total) weights;
    marginals;
    damping = [| 0.05; 0.5; 1.0 |].(seed / 6 mod 3);
  }

let show_distribution entries =
  String.concat "; " (List.map (fun (k, f) -> Printf.sprintf "%d:%h" k f) entries)

(* The list view gives the reference's entries, in its order, bit for
   bit, and returns [current] itself exactly when the reference does. *)
let prop_ah_list_matches_reference =
  QCheck.Test.make ~name:"AH list view equals the reference bit for bit" ~count:1000
    QCheck.(int_bound 1_000_000) (fun seed ->
      let c = ah_case seed in
      let current = Array.to_list (Array.map2 (fun k f -> (k, f)) c.ids c.fracs) in
      let through k =
        let rec find i = if c.ids.(i) = k then c.marginals.(i) else find (i + 1) in
        find 0
      in
      let want = Ref_heuristics.adjust ~damping:c.damping ~current ~through () in
      let got = Heuristics.adjust ~damping:c.damping ~current ~through () in
      if show_distribution got <> show_distribution want || (got == current) <> (want == current)
      then
        QCheck.Test.fail_reportf "seed %d: got [%s]%s, want [%s]%s" seed (show_distribution got)
          (if got == current then " (current)" else "")
          (show_distribution want)
          (if want == current then " (current)" else "");
      true)

(* The row kernel on a φ row whose successors sit among other
   neighbor slots, against the controller's old path: the reference
   step on [Params.fractions], written back with [set_fractions].
   Router 0's links go to the case's successors in order, with its
   other neighbors among 1-8 between them; a_k is [dist.(k)] over zero
   link costs. *)
let prop_ah_row_matches_reference =
  QCheck.Test.make ~name:"AH row kernel equals the reference bit for bit" ~count:1000
    QCheck.(int_bound 1_000_000) (fun seed ->
      let c = ah_case seed in
      let rng = Mdr_util.Rng.create ~seed:(seed + 1000) in
      (* A random interleaving that keeps the successors' order. *)
      let rec interleave a b =
        match (a, b) with
        | [], rest | rest, [] -> rest
        | x :: a', y :: b' ->
          if Mdr_util.Rng.int rng ~bound:2 = 0 then x :: interleave a' b else y :: interleave a b'
      in
      let order =
        interleave (Array.to_list c.ids)
          (List.filter (fun k -> not (Array.mem k c.ids)) (List.init 8 (fun i -> i + 1)))
      in
      let g = Graph.create ~names:(Array.init 10 string_of_int) in
      List.iter (fun k -> Graph.add_link g ~src:0 ~dst:k ~capacity:1.0 ~prop_delay:0.0) order;
      let dst = 9 in
      let dist = Array.init 10 (fun _ -> Mdr_util.Rng.uniform rng ~lo:0.1 ~hi:10.0) in
      Array.iteri (fun i k -> dist.(k) <- c.marginals.(i)) c.ids;
      let params () =
        let p = Fluid.Params.create g in
        Fluid.Params.set_fractions p ~node:0 ~dst
          (Array.to_list (Array.map2 (fun k f -> (k, f)) c.ids c.fracs));
        p
      in
      let outcome f p =
        match f p with
        | () ->
          String.concat " "
            (Array.to_list (Array.map (Printf.sprintf "%h") (Fluid.Params.row p ~node:0 ~dst)))
        | exception Invalid_argument msg -> "raised " ^ msg
      in
      let want =
        outcome
          (fun p ->
            let current = Fluid.Params.fractions p ~node:0 ~dst in
            Fluid.Params.set_fractions p ~node:0 ~dst
              (Ref_heuristics.adjust ~damping:c.damping ~current ~through:(fun k -> dist.(k)) ()))
          (params ())
      in
      let costs = Array.make (Graph.link_count g) 0.0 in
      let got =
        outcome
          (fun p ->
            Heuristics.adjust_row ~damping:c.damping (Heuristics.workspace p) p ~node:0 ~dst ~dist
              ~costs)
          (params ())
      in
      if got <> want then QCheck.Test.fail_reportf "seed %d: got [%s], want [%s]" seed got want;
      true)

let suite =
  [
    Alcotest.test_case "ih: single successor" `Quick test_ih_single_successor;
    Alcotest.test_case "ih: two successors (Fig. 6)" `Quick test_ih_two_successors;
    Alcotest.test_case "ih: equal distances" `Quick test_ih_equal_distances_equal_split;
    Alcotest.test_case "ih: Property 1" `Quick test_ih_is_distribution;
    Alcotest.test_case "ih: monotone in distance" `Quick test_ih_monotone;
    Alcotest.test_case "ih: input validation" `Quick test_ih_rejects_bad_input;
    Alcotest.test_case "ah: moves toward best (Fig. 7)" `Quick test_ah_moves_toward_best;
    Alcotest.test_case "ah: fixpoint when balanced" `Quick test_ah_fixpoint_when_balanced;
    Alcotest.test_case "ah: drains worst at full step" `Quick test_ah_drains_worst;
    Alcotest.test_case "ah: damping" `Quick test_ah_damping_partial;
    Alcotest.test_case "ah: single entry" `Quick test_ah_single_entry_unchanged;
    Alcotest.test_case "ah: repeated application converges" `Quick test_ah_repeated_application_converges;
    Alcotest.test_case "controller: MP within envelope of OPT" `Slow test_mp_close_to_opt_per_flow;
    Alcotest.test_case "controller: loop-free DAGs" `Quick test_mp_loop_free_every_destination;
    Alcotest.test_case "controller: SP is single-path" `Quick test_sp_single_successor_everywhere;
    Alcotest.test_case "controller: AH beats IH-only" `Slow test_mp_beats_ih_only;
    Alcotest.test_case "controller: MP <= SP under load" `Slow test_mp_never_worse_than_sp_under_load;
    Alcotest.test_case "controller: ECMP even split" `Quick test_ecmp_even_split_on_symmetric_paths;
    Alcotest.test_case "controller: ECMP collapses on unequal costs" `Quick test_ecmp_single_path_when_costs_differ;
    Alcotest.test_case "controller: history length" `Quick test_controller_history_length;
    Alcotest.test_case "controller: config validation" `Quick test_controller_rejects_bad_config;
    Alcotest.test_case "controller: successor sets" `Quick test_successor_sets;
    Alcotest.test_case "ah: closed loop equalizes marginals" `Quick test_ah_reaches_perfect_balance_closed_loop;
    QCheck_alcotest.to_alcotest prop_ah_preserves_distribution;
    QCheck_alcotest.to_alcotest prop_ih_preserves_distribution;
    Alcotest.test_case "controller: MP independent of link order" `Quick test_mp_independent_of_link_order;
    Alcotest.test_case "policy: SP tie goes to the first candidate" `Quick test_policy_sp_tie;
    Alcotest.test_case "policy: ECMP tolerance" `Quick test_policy_ecmp_tolerance;
    Alcotest.test_case "policy: MP leaves bad a_k out of IH" `Quick test_policy_mp_ih_skips_bad_marginals;
    Alcotest.test_case "policy: no candidates, no route" `Quick test_policy_no_route;
    Alcotest.test_case "policy: AH only under MP" `Quick test_policy_ah_only_mp;
    QCheck_alcotest.to_alcotest prop_ah_list_matches_reference;
    QCheck_alcotest.to_alcotest prop_ah_row_matches_reference;
  ]
