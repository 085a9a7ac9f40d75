(* Equivalence tests for the incremental SPF engine: random delta
   streams on random tables, the incremental result must be
   bit-identical to a from-scratch Dijkstra — distances, parents,
   first-hop sets, and the reported changed-node list.

   Costs are drawn from the dyadic grid (multiples of 0.25), so
   equal-cost paths collide *exactly* — the regime where tie-breaking
   must agree — while staying inside the engine's generic-position
   contract (no sub-tolerance near-ties). *)

module Rng = Mdr_util.Rng
module Topo_table = Mdr_routing.Topo_table
module Dijkstra = Mdr_routing.Dijkstra
module Incr_spf = Mdr_routing.Incr_spf

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let dyadic rng = float_of_int (1 + Rng.int rng ~bound:40) *. 0.25

let random_table rng ~n =
  let t = Topo_table.create () in
  (* A ring base keeps most of the graph reachable, then random extra
     edges create shortcuts, multipath ties and asymmetry. *)
  for i = 0 to n - 1 do
    Topo_table.set t ~head:i ~tail:((i + 1) mod n) ~cost:(dyadic rng)
  done;
  let extra = n + Rng.int rng ~bound:(2 * n) in
  for _ = 1 to extra do
    let h = Rng.int rng ~bound:n and tl = Rng.int rng ~bound:n in
    if h <> tl then Topo_table.set t ~head:h ~tail:tl ~cost:(dyadic rng)
  done;
  t

(* Apply one random mutation; return the actual-change entries (empty
   when the mutation was a no-op), in the Topo_table.diff convention. *)
let random_delta rng table ~n =
  let entries = Topo_table.entries table in
  let m = List.length entries in
  let pick_existing () = List.nth entries (Rng.int rng ~bound:m) in
  match Rng.int rng ~bound:10 with
  | 0 | 1 | 2 | 3 | 4 | 5 when m > 0 ->
    (* Cost change on an existing edge. *)
    let e = pick_existing () in
    let c = dyadic rng in
    if Float.equal c e.Topo_table.cost then []
    else begin
      Topo_table.set table ~head:e.Topo_table.head ~tail:e.Topo_table.tail ~cost:c;
      [ { e with Topo_table.cost = c } ]
    end
  | 6 | 7 when m > 1 ->
    let e = pick_existing () in
    Topo_table.remove table ~head:e.Topo_table.head ~tail:e.Topo_table.tail;
    [ { e with Topo_table.cost = infinity } ]
  | _ ->
    let h = Rng.int rng ~bound:n and tl = Rng.int rng ~bound:n in
    if h = tl then []
    else begin
      let c = dyadic rng in
      match Topo_table.cost table ~head:h ~tail:tl with
      | Some old when Float.equal old c -> []
      | _ ->
        Topo_table.set table ~head:h ~tail:tl ~cost:c;
        [ { Topo_table.head = h; tail = tl; cost = c } ]
    end

let first_hop parent ~root v =
  let rec walk v = if parent.(v) = root || parent.(v) < 0 then v else walk parent.(v) in
  if v = root || parent.(v) < 0 then -1 else walk v

(* Compare the maintained state against a from-scratch run; returns an
   error description or None. *)
let mismatch ws_full scratch_dist scratch_parent (st : Incr_spf.state) table =
  let n = st.n in
  Dijkstra.on_table_into ws_full ~n ~root:st.root ~dist:scratch_dist
    ~parent:scratch_parent table;
  let bad = ref None in
  for v = 0 to n - 1 do
    if !bad = None then begin
      if not (Float.equal st.dist.(v) scratch_dist.(v)) then
        bad :=
          Some
            (Printf.sprintf "dist %d: incr %.17g full %.17g" v st.dist.(v)
               scratch_dist.(v))
      else if st.parent.(v) <> scratch_parent.(v) then
        bad :=
          Some
            (Printf.sprintf "parent %d: incr %d full %d" v st.parent.(v)
               scratch_parent.(v))
      else if
        first_hop st.parent ~root:st.root v
        <> first_hop scratch_parent ~root:st.root v
      then bad := Some (Printf.sprintf "first hop %d" v)
    end
  done;
  !bad

(* The main property: a random table, a stream of random delta batches,
   incremental == from-scratch after every batch, and the changed-node
   report is exactly the set of nodes whose (dist, parent) moved. *)
let prop_incremental_equals_full =
  QCheck.Test.make ~name:"incr SPF == full Dijkstra (random delta streams)"
    ~count:220
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 6 + Rng.int rng ~bound:30 in
      let table = random_table rng ~n in
      let root = Rng.int rng ~bound:n in
      let st = Incr_spf.create ~n ~root in
      let ws = Incr_spf.workspace () in
      let ws_full = Dijkstra.workspace () in
      let sd = Array.make n infinity and sp = Array.make n (-1) in
      Incr_spf.full ws st table;
      (match mismatch ws_full sd sp st table with
      | Some m -> QCheck.Test.fail_reportf "after full: %s" m
      | None -> ());
      let repaired = ref 0 in
      for _batch = 1 to 15 do
        let ops = 1 + Rng.int rng ~bound:3 in
        let changes = ref [] in
        for _ = 1 to ops do
          changes := !changes @ random_delta rng table ~n
        done;
        let pre_dist = Array.copy st.dist and pre_parent = Array.copy st.parent in
        let reported = ref [] in
        let outcome =
          Incr_spf.update ws st table ~changes:!changes
            ~on_changed:(fun v -> reported := v :: !reported)
        in
        (match mismatch ws_full sd sp st table with
        | Some m -> QCheck.Test.fail_reportf "after update: %s" m
        | None -> ());
        (match outcome with
        | Incr_spf.Recomputed -> ()
        | Incr_spf.Repaired k ->
          incr repaired;
          let actual = ref [] in
          for v = n - 1 downto 0 do
            if
              (not (Float.equal pre_dist.(v) st.dist.(v)))
              || pre_parent.(v) <> st.parent.(v)
            then actual := v :: !actual
          done;
          let reported = List.rev !reported in
          if reported <> !actual then
            QCheck.Test.fail_reportf "changed report mismatch: [%s] vs [%s]"
              (String.concat ";" (List.map string_of_int reported))
              (String.concat ";" (List.map string_of_int !actual));
          if k <> List.length reported then
            QCheck.Test.fail_reportf "Repaired count %d <> %d" k
              (List.length reported))
      done;
      (* The stream must actually exercise the repair path, not just
         fall back every time. *)
      ignore !repaired;
      true)

(* Kill-at-every-delta: for one deterministic stream, start incremental
   maintenance at every prefix point and verify equality after every
   subsequent delta — no starting point may diverge. *)
let test_kill_at_every_delta () =
  List.iter
    (fun seed ->
      let deltas = 12 in
      for start = 0 to deltas do
        let rng = Rng.create ~seed in
        let n = 6 + Rng.int rng ~bound:20 in
        let table = random_table rng ~n in
        let root = Rng.int rng ~bound:n in
        let st = Incr_spf.create ~n ~root in
        let ws = Incr_spf.workspace () in
        let ws_full = Dijkstra.workspace () in
        let sd = Array.make n infinity and sp = Array.make n (-1) in
        if start = 0 then begin
          (* start=0: the fresh state is the empty table's tree, so its
             first update takes every link of the table as a change. *)
          let all = Topo_table.diff ~old_table:(Topo_table.create ()) ~new_table:table in
          ignore (Incr_spf.update ws st table ~changes:all);
          match mismatch ws_full sd sp st table with
          | Some m -> Alcotest.failf "seed %d bootstrap: %s" seed m
          | None -> ()
        end;
        for step = 1 to deltas do
          let changes = random_delta rng table ~n in
          if step = start then Incr_spf.full ws st table
          else if step > start then begin
            ignore (Incr_spf.update ws st table ~changes);
            match mismatch ws_full sd sp st table with
            | Some m ->
              Alcotest.failf "seed %d start %d step %d: %s" seed start step m
            | None -> ()
          end
        done
      done)
    [ 11; 42; 97 ]

let test_empty_changes_noop () =
  let table = random_table (Rng.create ~seed:5) ~n:10 in
  let st = Incr_spf.create ~n:10 ~root:0 in
  let ws = Incr_spf.workspace () in
  Incr_spf.full ws st table;
  match Incr_spf.update ws st table ~changes:[] with
  | Incr_spf.Repaired 0 -> ()
  | _ -> Alcotest.fail "empty changes should be Repaired 0"

let test_zero_cost_falls_back () =
  let table = Topo_table.create () in
  Topo_table.set table ~head:0 ~tail:1 ~cost:1.0;
  Topo_table.set table ~head:1 ~tail:2 ~cost:0.0;
  Topo_table.set table ~head:0 ~tail:2 ~cost:1.0;
  Topo_table.set table ~head:2 ~tail:3 ~cost:2.0;
  let st = Incr_spf.create ~n:4 ~root:0 in
  let ws = Incr_spf.workspace () in
  Incr_spf.full ws st table;
  check "zero flagged" true st.Incr_spf.has_zero;
  Topo_table.set table ~head:2 ~tail:3 ~cost:1.5;
  let outcome =
    Incr_spf.update ws st table
      ~changes:[ { Topo_table.head = 2; tail = 3; cost = 1.5 } ]
  in
  check "recomputed" true (outcome = Incr_spf.Recomputed);
  let ws_full = Dijkstra.workspace () in
  let sd = Array.make 4 infinity and sp = Array.make 4 (-1) in
  (match mismatch ws_full sd sp st table with
  | Some m -> Alcotest.fail m
  | None -> ());
  check "fallback counted" true ((Incr_spf.stats st).Incr_spf.fallbacks >= 1)

let test_large_orphan_region_falls_back () =
  (* A pure path: cutting the first edge orphans everything downstream,
     far past the dirty threshold. *)
  let n = 40 in
  let table = Topo_table.create () in
  for i = 0 to n - 2 do
    Topo_table.set table ~head:i ~tail:(i + 1) ~cost:1.0
  done;
  let st = Incr_spf.create ~n ~root:0 in
  let ws = Incr_spf.workspace () in
  Incr_spf.full ws st table;
  Topo_table.remove table ~head:0 ~tail:1;
  let outcome =
    Incr_spf.update ws st table
      ~changes:[ { Topo_table.head = 0; tail = 1; cost = infinity } ]
  in
  check "recomputed" true (outcome = Incr_spf.Recomputed);
  for v = 1 to n - 1 do
    check "unreachable" true (Float.equal st.Incr_spf.dist.(v) infinity)
  done

let test_single_change_is_repaired () =
  (* A small cost bump deep in a big ring-with-shortcuts graph must take
     the repair path, and the trees must still agree. *)
  let rng = Rng.create ~seed:1234 in
  let n = 60 in
  let table = random_table rng ~n in
  let st = Incr_spf.create ~n ~root:0 in
  let ws = Incr_spf.workspace () in
  Incr_spf.full ws st table;
  let repaired = ref 0 in
  for _ = 1 to 40 do
    let changes = random_delta rng table ~n in
    (* Only count genuine cost changes on existing edges. *)
    match Incr_spf.update ws st table ~changes with
    | Incr_spf.Repaired _ -> incr repaired
    | Incr_spf.Recomputed -> ()
  done;
  check "some repairs happened" true (!repaired > 25);
  let ws_full = Dijkstra.workspace () in
  let sd = Array.make n infinity and sp = Array.make n (-1) in
  (match mismatch ws_full sd sp st table with
  | Some m -> Alcotest.fail m
  | None -> ());
  let s = Incr_spf.stats st in
  check_int "repairs counted" !repaired s.Incr_spf.repairs

let test_tree_of_result_agrees () =
  let rng = Rng.create ~seed:77 in
  let n = 20 in
  let table = random_table rng ~n in
  let st = Incr_spf.create ~n ~root:3 in
  let ws = Incr_spf.workspace () in
  Incr_spf.full ws st table;
  for _ = 1 to 10 do
    let changes = random_delta rng table ~n in
    ignore (Incr_spf.update ws st table ~changes)
  done;
  let full = Dijkstra.on_table ~n ~root:3 table in
  let cost ~head ~tail =
    match Topo_table.cost table ~head ~tail with
    | Some c -> c
    | None -> Alcotest.fail "tree edge not in table"
  in
  let t_incr =
    Dijkstra.tree_of_result ~n ~root:3
      { Dijkstra.dist = st.Incr_spf.dist; parent = st.Incr_spf.parent }
      ~cost
  in
  let t_full = Dijkstra.tree_of_result ~n ~root:3 full ~cost in
  check "trees equal" true (Topo_table.equal t_incr t_full)

(* --- Router-level oracle: Router.check after every event ------------ *)

module Network = Mdr_routing.Network
module Router = Mdr_routing.Router
module Graph = Mdr_topology.Graph
module Generators = Mdr_topology.Generators

(* A deterministic event storm on a random connected graph — 30 cost
   changes and two fail/restore pairs, overlapping in time — run to
   quiescence. [observer] runs after every router event. *)
let storm ?observer ~mode ~seed () =
  let rng = Rng.create ~seed in
  let n = 6 + Rng.int rng ~bound:8 in
  let topo =
    Generators.random_connected ~rng ~n ~extra_links:(3 + Rng.int rng ~bound:6) ()
  in
  let cost (l : Graph.link) = 1.0 +. (l.prop_delay *. 1000.0) in
  let net = Network.create ~mode ~seed ?observer ~topo ~cost () in
  let links = Array.of_list (Graph.links topo) in
  for _ = 1 to 30 do
    let l = links.(Rng.int rng ~bound:(Array.length links)) in
    Network.schedule_link_cost net
      ~at:(Rng.uniform rng ~lo:0.0 ~hi:0.15)
      ~src:l.Graph.src ~dst:l.Graph.dst
      ~cost:(float_of_int (1 + Rng.int rng ~bound:40) *. 0.5)
  done;
  for _ = 1 to 2 do
    let l = links.(Rng.int rng ~bound:(Array.length links)) in
    let at = Rng.uniform rng ~lo:0.0 ~hi:0.08 in
    Network.schedule_fail_duplex net ~at ~a:l.Graph.src ~b:l.Graph.dst;
    Network.schedule_restore_duplex net ~at:(at +. 0.04) ~a:l.Graph.src
      ~b:l.Graph.dst
      ~cost:(float_of_int (1 + Rng.int rng ~bound:40) *. 0.5)
  done;
  Network.run net;
  net

(* The snapshot codec on one router's [bytes]: re-encoding the
   restored router gives the same bytes, and the restored router has
   the writer's fingerprint and passes its own rebuild check. *)
let roundtrip_error ~n r bytes =
  let r' = Router.restore ~n bytes in
  if not (String.equal (Router.snapshot r') bytes) then Some "snapshot . restore . snapshot moved"
  else if not (String.equal (Router.fingerprint r') (Router.fingerprint r)) then
    Some "restored fingerprint differs"
  else match Router.check r' with Ok () -> None | Error m -> Some ("restored: " ^ m)

(* Every router, after every event of the storm — link up, down and
   cost changes, full-table and data LSUs, ACKs, deferred MTUs — must
   match its from-scratch rebuild and survive a snapshot round trip,
   ACTIVE ones included (a router whose bytes did not move since its
   last round trip is not tried again). Its successor sets are then
   brought up to date, so the next check compares every set the next
   event leaves unmarked, and every set that moved since the last
   event must be among the destinations [Router.changed_successors]
   reports. *)
let prop_router_check_every_event =
  QCheck.Test.make ~name:"router: Router.check holds after every storm event" ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let mode = if seed mod 3 = 0 then Router.Pda else Router.Mpda in
      let events = ref 0 in
      let seen = ref [||] and tried = ref [||] in
      let observer net =
        incr events;
        let n = Graph.node_count (Network.topology net) in
        if Array.length !seen = 0 then begin
          seen := Array.make_matrix n n [];
          tried := Array.make n ""
        end;
        for i = 0 to n - 1 do
          let r = Network.router net i in
          (match Router.check r with
          | Ok () -> ()
          | Error m -> QCheck.Test.fail_reportf "seed %d, event %d: %s" seed !events m);
          let changed = Router.changed_successors r in
          let bytes = Router.snapshot r in
          if not (String.equal bytes !tried.(i)) then begin
            !tried.(i) <- bytes;
            match roundtrip_error ~n r bytes with
            | None -> ()
            | Some m -> QCheck.Test.fail_reportf "seed %d, event %d: router %d: %s" seed !events i m
          end;
          for j = 0 to n - 1 do
            let s = Router.successors r ~dst:j in
            if (not (List.equal Int.equal s !seen.(i).(j))) && not (List.mem j changed) then
              QCheck.Test.fail_reportf "seed %d, event %d: router %d: S_%d moved, not reported"
                seed !events i j;
            !seen.(i).(j) <- s
          done
        done
      in
      ignore (storm ~observer ~mode ~seed ());
      true)

let test_router_incremental_repairs_happen () =
  (* The oracle is vacuous if the incremental path never engages;
     check that storms actually exercise it. *)
  let net = storm ~mode:Router.Mpda ~seed:7 () in
  let repairs = ref 0 in
  for i = 0 to Graph.node_count (Network.topology net) - 1 do
    repairs := !repairs + (Router.spf_stats (Network.router net i)).Incr_spf.repairs
  done;
  check "storms exercise the repair path" true (!repairs > 0)

(* --- Syncnet: the large-n convergence pump --------------------------- *)

module Syncnet = Mdr_routing.Syncnet

let reference_table topo ~cost =
  let t = Topo_table.create () in
  List.iter
    (fun (l : Graph.link) ->
      Topo_table.set t ~head:l.Graph.src ~tail:l.Graph.dst ~cost:(cost l))
    (Graph.links topo);
  t

let test_syncnet_converges_to_shortest_paths () =
  let rng = Rng.create ~seed:21 in
  let topo = Generators.barabasi_albert ~rng ~n:60 ~m:2 () in
  (* Dyadic costs keep ties exact, matching the engine's contract. *)
  let costs = Hashtbl.create 256 in
  let cost (l : Graph.link) =
    match Hashtbl.find_opt costs (l.Graph.src, l.Graph.dst) with
    | Some c -> c
    | None ->
      let c = dyadic rng in
      Hashtbl.replace costs (l.Graph.src, l.Graph.dst) c;
      c
  in
  let net = Syncnet.create ~topo ~cost () in
  check "drained" true (Syncnet.run net);
  check "quiescent" true (Syncnet.quiescent net);
  check "exact shortest paths" true
    (Syncnet.check_distances net (reference_table topo ~cost));
  let before = Syncnet.messages_delivered net in
  check "messages flowed" true (before > 0);
  (* One link-cost change reconverges, and mostly via repairs. *)
  let l = List.hd (Graph.links topo) in
  let c' = cost l +. 0.5 in
  Hashtbl.replace costs (l.Graph.src, l.Graph.dst) c';
  Syncnet.change_link_cost net ~src:l.Graph.src ~dst:l.Graph.dst ~cost:c';
  check "drained again" true (Syncnet.run net);
  check "still exact" true
    (Syncnet.check_distances net (reference_table topo ~cost));
  let _, repairs, _ = Syncnet.spf_totals net in
  check "repairs engaged" true (repairs > 0)

let float_bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Topo_table's row store under random edit streams ([set], [remove],
   [apply_entry], [set_row], [clear], [copy]), against a [Hashtbl]
   mirror of each table: out-rows and in-rows (exactly the
   transpose), [entries], [size], [cost], [nodes], [diff] and [equal]
   agree with the mirror after every step, for every table in the pool
   — so an edit of one table never shows in a copy of it. *)
let prop_rows_match_mirror =
  QCheck.Test.make ~name:"Topo_table rows == Hashtbl mirror (random edit streams)"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 4 + Rng.int rng ~bound:20 in
      (* Ids reach past the nominal [n]; now and then far past it. *)
      let node () =
        if Rng.int rng ~bound:25 = 0 then n + Rng.int rng ~bound:(4 * n)
        else Rng.int rng ~bound:(n + 3)
      in
      let mirror_of t =
        let m = Hashtbl.create 64 in
        List.iter (fun (e : Topo_table.entry) -> Hashtbl.replace m (e.head, e.tail) e.cost)
          (Topo_table.entries t);
        m
      in
      let first = random_table rng ~n in
      let pool = ref [| (first, mirror_of first) |] in
      let sorted_bindings m =
        List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) m [])
      in
      let bits l1 l2 =
        List.equal (fun (a, x) (b, y) -> a = b && float_bits_equal x y) l1 l2
      in
      let check_against step i =
        let t, m = !pool.(i) in
        let fail fmt = QCheck.Test.fail_reportf ("step %d, table %d: " ^^ fmt) step i in
        let links = sorted_bindings m in
        let top = List.fold_left (fun acc ((h, tl), _) -> max acc (max h tl)) n links in
        for v = 0 to top + 1 do
          let out =
            List.filter_map (fun ((h, tl), c) -> if h = v then Some (tl, c) else None) links
          in
          let inn =
            List.sort compare
              (List.filter_map (fun ((h, tl), c) -> if tl = v then Some (h, c) else None) links)
          in
          if not (bits (Topo_table.out_links t ~head:v) out) then fail "out-row %d" v;
          if not (bits (Topo_table.in_links t ~tail:v) inn) then fail "in-row %d" v
        done;
        let entries =
          List.map (fun (e : Topo_table.entry) -> ((e.head, e.tail), e.cost)) (Topo_table.entries t)
        in
        if not (bits entries links) then fail "entries not the sorted links";
        if Topo_table.size t <> Hashtbl.length m then fail "size";
        List.iter
          (fun ((head, tail), c) ->
            match Topo_table.cost t ~head ~tail with
            | Some c' when float_bits_equal c c' -> ()
            | Some _ | None -> fail "cost of %d->%d" head tail)
          links;
        let h = node () and tl = node () in
        if Topo_table.cost t ~head:h ~tail:tl <> Hashtbl.find_opt m (h, tl) then
          fail "cost of %d->%d" h tl;
        let ends = List.concat_map (fun ((h, tl), _) -> [ h; tl ]) links in
        if Topo_table.nodes t <> List.sort_uniq Int.compare ends then fail "nodes"
      in
      for step = 1 to 200 do
        let i = Rng.int rng ~bound:(Array.length !pool) in
        let t, m = !pool.(i) in
        let links = Array.of_list (sorted_bindings m) in
        let existing () = fst links.(Rng.int rng ~bound:(Array.length links)) in
        (match Rng.int rng ~bound:20 with
        | 0 ->
          Topo_table.clear t;
          Hashtbl.reset m
        | 1 | 2 when Array.length !pool < 4 ->
          pool := Array.append !pool [| (Topo_table.copy t, Hashtbl.copy m) |]
        | 3 | 4 | 5 when Array.length links > 0 ->
          let head, tail = existing () in
          Topo_table.remove t ~head ~tail;
          Hashtbl.remove m (head, tail)
        | 6 | 7 | 8 when Array.length links > 0 ->
          let head, tail = existing () in
          let cost = dyadic rng in
          Topo_table.set t ~head ~tail ~cost;
          Hashtbl.replace m (head, tail) cost
        | 9 | 10 ->
          (* A removal of a link that may not exist. *)
          let head = node () and tail = node () in
          Topo_table.remove t ~head ~tail;
          Hashtbl.remove m (head, tail)
        | 11 | 12 | 13 ->
          let head = node () and tail = node () in
          if head <> tail then begin
            let cost = if Rng.int rng ~bound:3 = 0 then infinity else dyadic rng in
            Topo_table.apply_entry t { Topo_table.head; tail; cost };
            if Float.is_finite cost then Hashtbl.replace m (head, tail) cost
            else Hashtbl.remove m (head, tail)
          end
        | 14 | 15 ->
          (* A whole new out-row; its changes are the row's diff. *)
          let head = node () in
          let fresh =
            List.sort_uniq compare
              (List.init (Rng.int rng ~bound:5) (fun _ -> node ()))
            |> List.filter (fun tail -> tail <> head)
            |> List.map (fun tail -> (tail, dyadic rng))
          in
          let old = List.filter (fun ((h, _), _) -> h = head) (sorted_bindings m) in
          let expected =
            List.filter_map
              (fun ((_, tail), _) ->
                if List.mem_assoc tail fresh then None else Some ((head, tail), infinity))
              old
            @ List.filter_map
                (fun (tail, c) ->
                  match Hashtbl.find_opt m (head, tail) with
                  | Some c' when Float.equal c c' -> None
                  | Some _ | None -> Some ((head, tail), c))
                fresh
          in
          let got =
            List.map (fun (e : Topo_table.entry) -> ((e.head, e.tail), e.cost))
              (Topo_table.set_row t ~head fresh)
          in
          if not (bits got (List.sort compare expected)) then
            QCheck.Test.fail_reportf "step %d: set_row %d changes" step head;
          List.iter (fun ((h, tl), _) -> Hashtbl.remove m (h, tl)) old;
          List.iter (fun (tail, c) -> Hashtbl.replace m (head, tail) c) fresh
        | _ ->
          let head = node () and tail = node () in
          if head <> tail then begin
            let cost = dyadic rng in
            Topo_table.set t ~head ~tail ~cost;
            Hashtbl.replace m (head, tail) cost
          end);
        Array.iteri (fun j _ -> check_against step j) !pool;
        (* [diff] and [equal] between two tables of the pool. *)
        let j = Rng.int rng ~bound:(Array.length !pool) in
        let a, ma = !pool.(i) and b, mb = !pool.(j) in
        let expected =
          List.sort compare
            (Hashtbl.fold
               (fun k c acc ->
                 match Hashtbl.find_opt ma k with
                 | Some c' when Float.equal c c' -> acc
                 | Some _ | None -> (k, c) :: acc)
               mb
               (Hashtbl.fold (fun k _ acc -> if Hashtbl.mem mb k then acc else (k, infinity) :: acc) ma []))
        in
        let got =
          List.map (fun (e : Topo_table.entry) -> ((e.head, e.tail), e.cost))
            (Topo_table.diff ~old_table:a ~new_table:b)
        in
        if not (bits got expected) then
          QCheck.Test.fail_reportf "step %d: diff of tables %d -> %d" step i j;
        if Topo_table.equal a b <> (expected = []) then
          QCheck.Test.fail_reportf "step %d: equal of tables %d and %d" step i j
      done;
      true)

let test_table_negative_id () =
  let t = Topo_table.create () in
  Topo_table.set t ~head:0 ~tail:1 ~cost:1.0;
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "set head" true (raises (fun () -> Topo_table.set t ~head:(-1) ~tail:1 ~cost:1.0));
  check "set tail" true (raises (fun () -> Topo_table.set t ~head:0 ~tail:(-2) ~cost:1.0));
  check "remove" true (raises (fun () -> Topo_table.remove t ~head:(-1) ~tail:0));
  check "apply_entry" true
    (raises (fun () -> Topo_table.apply_entry t { Topo_table.head = 0; tail = -1; cost = 2.0 }));
  check "cost" true (raises (fun () -> Topo_table.cost t ~head:0 ~tail:(-1)));
  check "out_links" true (raises (fun () -> Topo_table.out_links t ~head:(-1)));
  check "in_links" true (raises (fun () -> Topo_table.in_links t ~tail:(-1)));
  check "set_row head" true (raises (fun () -> Topo_table.set_row t ~head:(-1) []));
  check "set_row tail" true (raises (fun () -> Topo_table.set_row t ~head:0 [ (-1, 1.0) ]));
  (* A row that is not strictly ascending, or holds a self-loop or a
     bad cost, is refused too. *)
  check "set_row order" true
    (raises (fun () -> Topo_table.set_row t ~head:0 [ (2, 1.0); (1, 1.0) ]));
  check "set_row duplicate" true
    (raises (fun () -> Topo_table.set_row t ~head:0 [ (1, 1.0); (1, 2.0) ]));
  check "set_row self-loop" true (raises (fun () -> Topo_table.set_row t ~head:0 [ (0, 1.0) ]));
  check "set_row cost" true
    (raises (fun () -> Topo_table.set_row t ~head:0 [ (1, Float.nan) ]));
  check_int "table kept" 1 (Topo_table.size t);
  check "row kept" true (Topo_table.out_links t ~head:0 = [ (1, 1.0) ])

(* --- Nbr_forest: neighbor tables as in-forests ------------------------ *)

module Nbr_forest = Mdr_routing.Nbr_forest

let row_bits_equal a b =
  List.equal (fun (t1, c1) (t2, c2) -> t1 = t2 && float_bits_equal c1 c2) a b

let entries_bits_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Topo_table.entry) (y : Topo_table.entry) ->
         x.head = y.head && x.tail = y.tail && float_bits_equal x.cost y.cost)
       a b

(* The head of the single link into each node of an in-forest table;
   -1 when nothing links into it. *)
let parents table ~n =
  let par = Array.make n (-1) in
  List.iter (fun (e : Topo_table.entry) -> par.(e.tail) <- e.head) (Topo_table.entries table);
  par

(* Is [a] an ancestor of (or equal to) [v]? Bounded, since a detached
   part of the forest may be a cycle. *)
let is_ancestor par ~a v =
  let rec up v steps = v = a || (v >= 0 && steps > 0 && up par.(v) (steps - 1)) in
  up v (Array.length par)

(* A random tree over a random subset of [0, n) hanging from [root]. *)
let random_tree rng ~n ~root =
  let t = Topo_table.create () in
  let order = Array.init n Fun.id in
  Rng.shuffle rng order;
  let placed = ref [ root ] in
  Array.iter
    (fun v ->
      if v <> root && Rng.int rng ~bound:5 > 0 then begin
        let ps = Array.of_list !placed in
        Topo_table.set t ~head:ps.(Rng.int rng ~bound:(Array.length ps)) ~tail:v
          ~cost:(dyadic rng);
        placed := v :: !placed
      end)
    order;
  t

(* One to three tree edits on a copy of [table] — reparent, detach a
   subtree, re-attach a detached node (sometimes under its own subtree,
   which leaves a cycle cut off from the root), change a link cost —
   and the LSU between the two: net changes sorted by (head, tail). *)
let random_tree_lsu rng table ~n ~root =
  let next = Topo_table.copy table in
  for _ = 0 to Rng.int rng ~bound:3 do
    let par = parents next ~n in
    let v = Rng.int rng ~bound:n in
    let p' = Rng.int rng ~bound:n in
    if v <> root then
      if par.(v) < 0 then begin
        if p' <> v then Topo_table.set next ~head:p' ~tail:v ~cost:(dyadic rng)
      end
      else
        match Rng.int rng ~bound:3 with
        | 0 -> Topo_table.remove next ~head:par.(v) ~tail:v
        | 1 -> Topo_table.set next ~head:par.(v) ~tail:v ~cost:(dyadic rng)
        | _ ->
          if p' <> par.(v) && not (is_ancestor par ~a:v p') then begin
            Topo_table.remove next ~head:par.(v) ~tail:v;
            Topo_table.set next ~head:p' ~tail:v ~cost:(dyadic rng)
          end
  done;
  Topo_table.diff ~old_table:table ~new_table:next

(* The same LSU out of order and with stale earlier entries for some of
   its links: applied in sequence, the last entry per link wins. *)
let scramble rng lsu =
  let a = Array.of_list lsu in
  Rng.shuffle rng a;
  let stale =
    List.filter_map
      (fun (e : Topo_table.entry) ->
        if Rng.int rng ~bound:3 = 0 then Some { e with cost = dyadic rng } else None)
      lsu
  in
  stale @ Array.to_list a

let forest_mismatch ws (f, table) ~n =
  let root = Nbr_forest.root f in
  let st = Incr_spf.create ~n ~root in
  Incr_spf.full ws st table;
  let dist = Nbr_forest.dist f in
  let bad = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !bad = None then bad := Some m) fmt in
  for v = 0 to n - 1 do
    if not (float_bits_equal dist.(v) st.Incr_spf.dist.(v)) then
      fail "dist %d: forest %h, full %h" v dist.(v) st.Incr_spf.dist.(v);
    if Nbr_forest.spf_parent f v <> st.Incr_spf.parent.(v) then
      fail "parent %d: forest %d, full %d" v (Nbr_forest.spf_parent f v)
        st.Incr_spf.parent.(v);
    if not (row_bits_equal (Nbr_forest.children f v) (Topo_table.out_links table ~head:v)) then
      fail "children of %d differ from out_links" v
  done;
  if not (entries_bits_equal (Nbr_forest.entries f) (Topo_table.entries table)) then
    fail "entries differ";
  !bad

let prop_nbr_forest_matches_dijkstra =
  QCheck.Test.make ~name:"Nbr_forest == Dijkstra (random tree-diff LSU streams)"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = if seed mod 2 = 0 then 3 + Rng.int rng ~bound:8 else 40 + Rng.int rng ~bound:80 in
      let root = Rng.int rng ~bound:n in
      let ws = Incr_spf.workspace () and fws = Nbr_forest.workspace () in
      let fresh () =
        let table = random_tree rng ~n ~root in
        let f = Nbr_forest.create ~n ~root in
        Nbr_forest.load fws f (Topo_table.entries table);
        (f, table)
      in
      (* Copies join the pool and are edited independently; every
         member is checked after every step, so shared state between a
         copy and its origin shows up as a mismatch. *)
      let pool = ref [| fresh () |] in
      for step = 1 to 120 do
        let i = Rng.int rng ~bound:(Array.length !pool) in
        let f, table = !pool.(i) in
        (match Rng.int rng ~bound:20 with
        | 0 ->
          let table' = random_tree rng ~n ~root in
          Nbr_forest.load fws f (Topo_table.entries table');
          Topo_table.clear table;
          List.iter (Topo_table.apply_entry table) (Topo_table.entries table')
        | 1 ->
          Nbr_forest.clear f;
          Topo_table.clear table
        | 2 when Array.length !pool < 4 ->
          pool := Array.append !pool [| (Nbr_forest.copy f, Topo_table.copy table) |]
        | _ ->
          let lsu = random_tree_lsu rng table ~n ~root in
          let sent = if Rng.int rng ~bound:4 = 0 then scramble rng lsu else lsu in
          let before = Array.copy (Nbr_forest.dist f) in
          let changed = ref [] in
          let net =
            Nbr_forest.apply ~on_changed:(fun v -> changed := v :: !changed) fws f sent
          in
          List.iter (Topo_table.apply_entry table) sent;
          if not (entries_bits_equal net lsu) then
            QCheck.Test.fail_reportf "step %d: net changes differ from the diff" step;
          let moved =
            List.filter
              (fun v -> not (float_bits_equal before.(v) (Nbr_forest.dist f).(v)))
              (List.init n Fun.id)
          in
          if List.sort Int.compare !changed <> moved then
            QCheck.Test.fail_reportf "step %d: changed report [%s] <> moved [%s]" step
              (String.concat ";" (List.map string_of_int (List.sort Int.compare !changed)))
              (String.concat ";" (List.map string_of_int moved)));
        Array.iteri
          (fun j member ->
            match forest_mismatch ws member ~n with
            | None -> ()
            | Some m -> QCheck.Test.fail_reportf "step %d, table %d (n=%d): %s" step j n m)
          !pool
      done;
      true)

let test_nbr_forest_rejects_non_forest () =
  let e head tail = { Topo_table.head; tail; cost = 1.0 } in
  let f = Nbr_forest.create ~n:5 ~root:0 in
  let ws = Nbr_forest.workspace () in
  ignore (Nbr_forest.apply ws f [ e 0 1; e 1 2 ]);
  let before = Nbr_forest.entries f and dist = Array.copy (Nbr_forest.dist f) in
  let raises what lsu =
    match Nbr_forest.apply ws f lsu with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ ->
      check (what ^ ": table unchanged") true
        (entries_bits_equal before (Nbr_forest.entries f)
        && Array.for_all2 float_bits_equal dist (Nbr_forest.dist f))
  in
  raises "second parent" [ e 0 2 ];
  raises "two new parents" [ e 0 3; e 1 3 ];
  raises "link into the root" [ e 2 0 ];
  raises "self-loop" [ e 2 2 ];
  raises "node out of range" [ e 2 5 ];
  (* A move is one batch: the new parent link may precede the old
     link's removal. *)
  ignore (Nbr_forest.apply ws f [ e 0 2; { (e 1 2) with cost = infinity } ]);
  check "moved" true (row_bits_equal (Nbr_forest.children f 0) [ (1, 1.0); (2, 1.0) ])

let test_router_two_parent_lsu_raises () =
  let r = Router.create ~mode:Router.Mpda ~id:0 ~n:4 () in
  ignore (Router.handle_link_up r ~nbr:1 ~cost:1.0);
  let lsu entries = { Router.entries; reset = false; seq = None; ack_of = None } in
  let e head tail = { Topo_table.head; tail; cost = 1.0 } in
  ignore (Router.handle_msg r ~from_:1 (lsu [ e 1 2 ]));
  Alcotest.check_raises "named error"
    (Invalid_argument "Router 0: LSU from neighbor 1: Nbr_forest: node 2 would have two parents")
    (fun () -> ignore (Router.handle_msg r ~from_:1 (lsu [ e 3 2 ])))

(* Router 0's preferred neighbor for row 3 is 1 (sum 2 against 6 via
   2). Inside one ACTIVE phase, 1 goes down and comes back up, and its
   full-table reload leaves 3 a leaf: row 3 prefers 1 again, but its
   stored content (3 -> 4) came from the table 1 had before. Only the
   mark taken when the link went down sends the row to the next MTU.
   Router.check runs after every event, and the MTU that ends the
   phase must route 4 over 1 -> 4 (distance 4), not over the stale
   1 -> 3 -> 4 (distance 3). *)
let test_router_pref_returns_within_active_phase () =
  let r = Router.create ~mode:Router.Mpda ~id:0 ~n:5 () in
  let awaited = Hashtbl.create 4 in
  let step what outputs =
    List.iter
      (fun (o : Router.output) ->
        Option.iter (fun s -> Hashtbl.replace awaited o.dst s) o.msg.seq)
      outputs;
    match Router.check r with Ok () -> () | Error m -> Alcotest.failf "%s: %s" what m
  in
  let msg ?seq ?ack_of ?(reset = false) entries = { Router.entries; reset; seq; ack_of } in
  let e head tail cost = { Topo_table.head; tail; cost } in
  let ack k =
    match Hashtbl.find_opt awaited k with
    | None -> ()
    | Some s ->
      Hashtbl.remove awaited k;
      step (Printf.sprintf "ACK from %d" k) (Router.handle_msg r ~from_:k (msg ~ack_of:s []))
  in
  let settle () =
    while Hashtbl.length awaited > 0 do
      List.iter ack (List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) awaited []))
    done
  in
  step "link 1 up" (Router.handle_link_up r ~nbr:1 ~cost:1.0);
  step "link 2 up" (Router.handle_link_up r ~nbr:2 ~cost:5.0);
  step "table of 1"
    (Router.handle_msg r ~from_:1 (msg ~seq:0 ~reset:true [ e 1 3 1.0; e 3 4 1.0 ]));
  step "table of 2"
    (Router.handle_msg r ~from_:2 (msg ~seq:0 ~reset:true [ e 2 3 1.0; e 3 4 1.0 ]));
  settle ();
  check "passive after the cold start" true (Router.is_passive r);
  check "D_4 over 1 -> 3 -> 4" true (Float.equal (Router.distance r ~dst:4) 3.0);
  step "cost of 2" (Router.handle_link_cost r ~nbr:2 ~cost:6.0);
  check "active" false (Router.is_passive r);
  let phases = Router.stats_active_phases r in
  (* 2's ACK stays outstanding, so the phase outlives 1's flap. *)
  step "link 1 down" (Router.handle_link_down r ~nbr:1);
  Hashtbl.remove awaited 1;
  step "link 1 up again" (Router.handle_link_up r ~nbr:1 ~cost:1.0);
  step "reload of 1"
    (Router.handle_msg r ~from_:1 (msg ~seq:1 ~reset:true [ e 1 3 1.0; e 1 4 3.0 ]));
  check "still active" false (Router.is_passive r);
  check_int "one ACTIVE phase" phases (Router.stats_active_phases r);
  check "D_4 deferred" true (Float.equal (Router.distance r ~dst:4) 3.0);
  ack 1;
  ack 2;
  check_int "the phase ended" phases (Router.stats_active_phases r - 1);
  check "D_4 over 1 -> 4" true (Float.equal (Router.distance r ~dst:4) 4.0);
  check "first hop to 4" true (Router.best_successor r ~dst:4 = Some 1)

module Lfi = Mdr_routing.Lfi

(* A FIFO pump like Syncnet's, kept here so it can watch every event:
   MPDA on a BA-200 graph converges from cold, takes 20 link-cost
   changes and one duplex failure and repair. Every LSU other than a
   full table must equal the diff of its sender's main table since the
   sender last announced it; every [k] deliveries, every router must
   pass Router.check and every destination the LFI conditions. *)
let test_fifo_pump_oracles () =
  let rng = Rng.create ~seed:29 in
  let topo = Generators.barabasi_albert ~rng ~n:200 ~m:2 () in
  let n = Graph.node_count topo in
  let routers = Array.init n (fun id -> Router.create ~mode:Router.Mpda ~id ~n ()) in
  let q = Queue.create () in
  let delivered = ref 0 and checks = ref 0 in
  (* [tables.(i)]: router i's main table as of the last event after
     which it sent changes or a full table. A change it failed to send
     shows up in its next diff, or at the next check. *)
  let tables = Array.init n (fun _ -> Topo_table.create ()) in
  let unsent_changes () =
    Array.iteri
      (fun i r ->
        if not (Topo_table.equal tables.(i) (Router.main_table r)) then
          Alcotest.failf "after %d messages: router %d changed its table unannounced"
            !delivered i)
      routers
  in
  let check_all () =
    incr checks;
    unsent_changes ();
    (* Successor sets are brought up to date after each check, so the
       next one compares every set left unmarked since. *)
    Array.iter
      (fun r ->
        (match Router.check r with
        | Ok () -> ()
        | Error m -> Alcotest.failf "after %d messages: %s" !delivered m);
        ignore (Router.changed_successors r : int list))
      routers;
    for dst = 0 to n - 1 do
      if
        not
          (Lfi.lfi_conditions_hold ~n
             ~neighbors:(fun i -> Router.up_neighbors routers.(i))
             ~feasible:(fun ~node ~dst -> Router.feasible_distance routers.(node) ~dst)
             ~reported:(fun ~holder ~about ~dst ->
               Router.neighbor_distance routers.(holder) ~nbr:about ~dst)
             ~dst)
      then Alcotest.failf "after %d messages: LFI broken for destination %d" !delivered dst
    done
  in
  (* Run one event on router [i] and queue what it sends. *)
  let event i f =
    let outputs = f routers.(i) in
    let announces (o : Router.output) = o.msg.reset || o.msg.entries <> [] in
    if List.exists announces outputs then begin
      let after = Router.main_table routers.(i) in
      let diff = Topo_table.diff ~old_table:tables.(i) ~new_table:after in
      tables.(i) <- after;
      List.iter
        (fun (o : Router.output) ->
          let expected = if o.msg.reset then Topo_table.entries after else diff in
          if not (entries_bits_equal o.msg.entries expected) then
            Alcotest.failf "after %d messages: router %d sent %s" !delivered i
              (if o.msg.reset then "a full table that is not its table"
               else "an LSU that is not its table diff"))
        outputs
    end;
    List.iter (fun (o : Router.output) -> Queue.add (i, o.dst, o.msg) q) outputs
  in
  let k = 1000 in
  let drain () =
    while not (Queue.is_empty q) do
      let from_, dst, msg = Queue.pop q in
      incr delivered;
      event dst (fun r -> Router.handle_msg r ~from_ msg);
      if !delivered mod k = 0 then check_all ()
    done;
    check_all ()
  in
  let costs = Hashtbl.create 1024 in
  List.iter
    (fun (l : Graph.link) ->
      let c = dyadic rng in
      Hashtbl.replace costs (l.src, l.dst) c;
      event l.src (fun r -> Router.handle_link_up r ~nbr:l.dst ~cost:c))
    (Graph.links topo);
  drain ();
  let links = Array.of_list (Graph.links topo) in
  for _ = 1 to 20 do
    let l = links.(Rng.int rng ~bound:(Array.length links)) in
    let c = dyadic rng in
    Hashtbl.replace costs (l.src, l.dst) c;
    event l.src (fun r -> Router.handle_link_cost r ~nbr:l.dst ~cost:c)
  done;
  drain ();
  (* A duplex failure loses what is in flight on the link. *)
  let l = links.(Rng.int rng ~bound:(Array.length links)) in
  let on_link (a, b, _) = (a = l.src && b = l.dst) || (a = l.dst && b = l.src) in
  let kept = Queue.create () in
  Queue.iter (fun m -> if not (on_link m) then Queue.add m kept) q;
  Queue.clear q;
  Queue.transfer kept q;
  event l.src (fun r -> Router.handle_link_down r ~nbr:l.dst);
  event l.dst (fun r -> Router.handle_link_down r ~nbr:l.src);
  drain ();
  event l.src (fun r -> Router.handle_link_up r ~nbr:l.dst ~cost:(Hashtbl.find costs (l.src, l.dst)));
  event l.dst (fun r -> Router.handle_link_up r ~nbr:l.src ~cost:(Hashtbl.find costs (l.dst, l.src)));
  drain ();
  check "converged" true (Array.for_all Router.is_passive routers);
  check "checked at many points" true (!checks > 20);
  (* Converged distances are exact. *)
  let reference = Topo_table.create () in
  Hashtbl.iter (fun (head, tail) cost -> Topo_table.set reference ~head ~tail ~cost) costs;
  for root = 0 to n - 1 do
    let res = Dijkstra.on_table ~n ~root reference in
    for j = 0 to n - 1 do
      if not (float_bits_equal (Router.distance routers.(root) ~dst:j) res.dist.(j)) then
        Alcotest.failf "router %d: distance to %d not exact" root j
    done
  done

(* --- One update scratch per domain ----------------------------------- *)

(* A pump that steps one event at a time: a message off its FIFO
   queue, or, once the queue is empty, the next scripted phase of link
   events. Each event's router must pass Router.check right after it. *)
type ext = Up of int * int * float | Cost of int * int * float | Down of int * int

type pump = {
  name : string;
  routers : Router.t array;
  q : (int * int * Router.msg) Queue.t;
  mutable phases : ext list list;
  mutable events : int;
  mutable watch : int -> (Router.t -> Router.output list) -> Router.output list -> unit;
      (* after each event: the router, the event and what it sent *)
}

let pump_of ~name ~seed ~n =
  let rng = Rng.create ~seed in
  let topo = Generators.barabasi_albert ~rng ~n ~m:2 () in
  let links = Array.of_list (Graph.links topo) in
  let cost = Hashtbl.create 256 in
  Array.iter (fun (l : Graph.link) -> Hashtbl.replace cost (l.src, l.dst) (dyadic rng)) links;
  let pick () = links.(Rng.int rng ~bound:(Array.length links)) in
  let changes =
    List.init 8 (fun _ ->
        List.init (1 + Rng.int rng ~bound:3) (fun _ ->
            let l = pick () in
            Cost (l.src, l.dst, dyadic rng)))
  in
  let l = pick () in
  let a = l.src and b = l.dst in
  let up (l : Graph.link) = Up (l.src, l.dst, Hashtbl.find cost (l.src, l.dst)) in
  {
    name;
    routers = Array.init n (fun id -> Router.create ~mode:Router.Mpda ~id ~n ());
    q = Queue.create ();
    phases =
      ((Array.to_list (Array.map up links) :: changes)
      @ [ [ Down (a, b); Down (b, a) ]; [ up l; Up (b, a, Hashtbl.find cost (b, a)) ] ]);
    events = 0;
    watch = (fun _ _ _ -> ());
  }

let pump_event p i f =
  let outputs = f p.routers.(i) in
  p.events <- p.events + 1;
  (match Router.check p.routers.(i) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s, event %d: %s" p.name p.events m);
  p.watch i f outputs;
  List.iter (fun (o : Router.output) -> Queue.add (i, o.dst, o.msg) p.q) outputs

(* One event; false once the queue and the script are both spent. *)
let pump_step p =
  if not (Queue.is_empty p.q) then begin
    let from_, dst, msg = Queue.pop p.q in
    pump_event p dst (fun r -> Router.handle_msg r ~from_ msg);
    true
  end
  else
    match p.phases with
    | [] -> false
    | phase :: rest ->
      p.phases <- rest;
      List.iter
        (function
          | Up (a, b, c) -> pump_event p a (fun r -> Router.handle_link_up r ~nbr:b ~cost:c)
          | Cost (a, b, c) -> pump_event p a (fun r -> Router.handle_link_cost r ~nbr:b ~cost:c)
          | Down (a, b) -> pump_event p a (fun r -> Router.handle_link_down r ~nbr:b))
        phase;
      true

(* Routers of any size share their domain's update scratch. Two BA
   networks of different sizes, their events interleaved in one
   domain, must end exactly where each ends run alone. *)
let test_scratch_shared_across_networks () =
  let small () = pump_of ~name:"BA-40" ~seed:41 ~n:40
  and big () = pump_of ~name:"BA-120" ~seed:42 ~n:120 in
  let fingerprints p = Array.map Router.fingerprint p.routers in
  let alone p =
    while pump_step p do
      ()
    done;
    (fingerprints p, p.events)
  in
  let small_fp, small_events = alone (small ()) in
  let big_fp, big_events = alone (big ()) in
  let a = small () and b = big () in
  (* Uneven turns, so the two sizes alternate at every kind of event. *)
  let rng = Rng.create ~seed:43 in
  let more_a = ref true and more_b = ref true in
  while !more_a || !more_b do
    for _ = 0 to Rng.int rng ~bound:3 do
      if !more_a then more_a := pump_step a
    done;
    for _ = 0 to Rng.int rng ~bound:3 do
      if !more_b then more_b := pump_step b
    done
  done;
  check_int "BA-40 events" small_events a.events;
  check_int "BA-120 events" big_events b.events;
  check "BA-40 fingerprints" true (fingerprints a = small_fp);
  check "BA-120 fingerprints" true (fingerprints b = big_fp);
  check "converged" true
    (Array.for_all Router.is_passive a.routers && Array.for_all Router.is_passive b.routers)

(* --- The snapshot codec ----------------------------------------------- *)

(* A router restored from its snapshot and the router it was taken
   from, fed the same events, stay indistinguishable: the same
   messages, equal fingerprints, and both pass Router.check after
   every event. Each twin is replaced by a fresh restore every third
   event of its router, so restores land mid-diffusion (ACTIVE, with
   merged rows awaiting the deferred MTU) as well as at rest. *)
let test_restored_twins () =
  let p = pump_of ~name:"BA-30" ~seed:44 ~n:30 in
  let restore r = Router.restore ~n:(Array.length p.routers) (Router.snapshot r) in
  let twins = Array.map restore p.routers in
  let own = Array.make (Array.length twins) 0 and active = ref 0 in
  p.watch <-
    (fun i f outputs ->
      let fail what = Alcotest.failf "event %d: router %d and its twin: %s" p.events i what in
      let twin = twins.(i) in
      if f twin <> outputs then fail "different messages";
      if not (String.equal (Router.fingerprint p.routers.(i)) (Router.fingerprint twin)) then
        fail "different fingerprints";
      (match Router.check twin with Ok () -> () | Error m -> fail m);
      own.(i) <- own.(i) + 1;
      if own.(i) mod 3 = 0 then begin
        if not (Router.is_passive p.routers.(i)) then incr active;
        twins.(i) <- restore p.routers.(i)
      end);
  while pump_step p do
    ()
  done;
  check "restored mid-diffusion" true (!active > 0);
  match Router.restore ~n:31 (Router.snapshot p.routers.(0)) with
  | _ -> Alcotest.fail "restored for the wrong n"
  | exception Router.Corrupt _ -> ()

(* Snapshots of every router of an MPDA storm, every 40 events, each
   with the storm's node count. *)
let fuzz_samples =
  lazy
    (let samples = ref [] and events = ref 0 in
     let observer net =
       incr events;
       if !events mod 40 = 0 then begin
         let n = Graph.node_count (Network.topology net) in
         for i = 0 to n - 1 do
           samples := (n, Router.snapshot (Network.router net i)) :: !samples
         done
       end
     in
     ignore (storm ~observer ~mode:Router.Mpda ~seed:5 ());
     Array.of_list !samples)

(* Router bytes cut short or with one bit flipped either restore or
   raise Router.Corrupt; no other exception escapes. *)
let prop_snapshot_fuzz =
  QCheck.Test.make ~name:"router: cut or bit-flipped snapshots raise only Corrupt" ~count:3000
    QCheck.(triple (int_bound 100_000) bool (int_bound 1_000_000))
    (fun (which, cut, at) ->
      let samples = Lazy.force fuzz_samples in
      let n, bytes = samples.(which mod Array.length samples) in
      let len = String.length bytes in
      let s =
        if cut then String.sub bytes 0 (at mod len)
        else begin
          let b = Bytes.of_string bytes and bit = at mod (8 * len) in
          Bytes.set_uint8 b (bit / 8) (Bytes.get_uint8 b (bit / 8) lxor (1 lsl (bit mod 8)));
          Bytes.to_string b
        end
      in
      match Router.restore ~n s with _ -> true | exception Router.Corrupt _ -> true)

let suite =
  [
    Alcotest.test_case "incr_spf: empty changes noop" `Quick test_empty_changes_noop;
    Alcotest.test_case "incr_spf: zero-cost edges force full runs" `Quick
      test_zero_cost_falls_back;
    Alcotest.test_case "incr_spf: big orphan region falls back" `Quick
      test_large_orphan_region_falls_back;
    Alcotest.test_case "incr_spf: cost changes take the repair path" `Quick
      test_single_change_is_repaired;
    Alcotest.test_case "incr_spf: tree_of_result agrees" `Quick
      test_tree_of_result_agrees;
    Alcotest.test_case "incr_spf: kill-at-every-delta sweep" `Slow
      test_kill_at_every_delta;
    Alcotest.test_case "router: incremental repairs engage in storms" `Quick
      test_router_incremental_repairs_happen;
    Alcotest.test_case "syncnet: converges to exact shortest paths" `Quick
      test_syncnet_converges_to_shortest_paths;
    QCheck_alcotest.to_alcotest prop_incremental_equals_full;
    QCheck_alcotest.to_alcotest prop_router_check_every_event;
    QCheck_alcotest.to_alcotest prop_rows_match_mirror;
    Alcotest.test_case "topo_table: negative ids and bad rows raise" `Quick
      test_table_negative_id;
    Alcotest.test_case "nbr_forest: non-forest LSUs rejected, table kept" `Quick
      test_nbr_forest_rejects_non_forest;
    Alcotest.test_case "router: two-parent LSU raises a named error" `Quick
      test_router_two_parent_lsu_raises;
    Alcotest.test_case "router: preferred neighbor returns within an ACTIVE phase" `Quick
      test_router_pref_returns_within_active_phase;
    Alcotest.test_case "router: FIFO pump, Router.check and LFI every 1000 messages" `Slow
      test_fifo_pump_oracles;
    Alcotest.test_case "router: two network sizes share one scratch" `Quick
      test_scratch_shared_across_networks;
    Alcotest.test_case "router: a restored twin follows its writer event for event" `Quick
      test_restored_twins;
    QCheck_alcotest.to_alcotest prop_snapshot_fuzz;
    QCheck_alcotest.to_alcotest prop_nbr_forest_matches_dijkstra;
  ]
