(* The correctness-tooling layer: the per-file lint rules, the
   whole-program effect checker (mdrsim check), the bounded MPDA
   interleaving checker (plus the LFI oracle's edge cases), and the
   determinism sanitizer. *)

module Lfi = Mdr_routing.Lfi
module Lint = Mdr_analysis.Lint_rules
module Check = Mdr_analysis.Check_rules
module Report = Mdr_analysis.Report
module Callgraph = Mdr_analysis.Callgraph
module Effects = Mdr_analysis.Effects
module Source_walk = Mdr_analysis.Source_walk
module Interleave = Mdr_analysis.Interleave
module Determinism = Mdr_analysis.Determinism
module Graph = Mdr_topology.Graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains_s needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- LFI oracle edge cases --------------------------------------------- *)

let no_neighbors _ = []
let inf_feasible ~node:_ ~dst:_ = infinity
let inf_reported ~holder:_ ~about:_ ~dst:_ = infinity

let test_lfi_single_node () =
  (* A 1-node network: the only router is the destination; there is
     nothing to check and nothing to loop through. *)
  check "acyclic" true
    (Lfi.successor_graph_acyclic ~n:1 ~successors:(fun ~node:_ -> []) ~dst:0);
  check "lfi holds" true
    (Lfi.lfi_conditions_hold ~n:1 ~neighbors:no_neighbors ~feasible:inf_feasible
       ~reported:inf_reported ~dst:0)

let test_lfi_disconnected_destination () =
  (* Three routers, the destination unreachable: every distance is
     infinite and every successor set empty. Infinite feasible
     distances must not be flagged (Eq. 16 compares two infinities). *)
  let neighbors = function 0 -> [ 1 ] | 1 -> [ 0 ] | _ -> [] in
  check "acyclic" true
    (Lfi.successor_graph_acyclic ~n:3 ~successors:(fun ~node:_ -> []) ~dst:2);
  check "lfi holds vacuously" true
    (Lfi.lfi_conditions_hold ~n:3 ~neighbors ~feasible:inf_feasible
       ~reported:inf_reported ~dst:2)

let test_lfi_self_loop_successor () =
  (* A router naming itself as successor is a 1-cycle: the graph walk
     must catch it, not just longer loops. *)
  let successors ~node = if node = 1 then [ 1 ] else [] in
  check "self-loop is a cycle" false
    (Lfi.successor_graph_acyclic ~n:3 ~successors ~dst:0);
  match Lfi.find_cycle ~n:3 ~successors ~dst:0 with
  | Some cycle -> check "witness contains the looping node" true (List.mem 1 cycle)
  | None -> Alcotest.fail "self-loop not found"

let test_lfi_empty_successor_sets () =
  (* All-empty successor sets (e.g. just after a reset) are trivially
     acyclic: no edges, no cycle. *)
  check "acyclic" true
    (Lfi.successor_graph_acyclic ~n:5 ~successors:(fun ~node:_ -> []) ~dst:4)

let test_lfi_two_cycle () =
  (* Sanity: the oracle does reject a real 2-cycle. *)
  let successors ~node = match node with 0 -> [ 1 ] | 1 -> [ 0 ] | _ -> [] in
  check "2-cycle rejected" false
    (Lfi.successor_graph_acyclic ~n:3 ~successors ~dst:2)

let test_lfi_violation_detected () =
  (* A successor whose feasible distance exceeds the copy a neighbor
     holds violates Eq. 16. *)
  let neighbors = function 0 -> [ 1 ] | 1 -> [ 0 ] | _ -> [] in
  let feasible ~node ~dst:_ = if node = 1 then 5.0 else 1.0 in
  let reported ~holder ~about ~dst:_ =
    if holder = 0 && about = 1 then 3.0 else infinity
  in
  check "violation flagged" false
    (Lfi.lfi_conditions_hold ~n:2 ~neighbors ~feasible ~reported ~dst:0)

(* --- Interleaving checker ---------------------------------------------- *)

let test_interleave_triangle_exhaustive () =
  let sc = List.hd (Interleave.bundled ~max_states:100_000 ()) in
  let st = Interleave.explore sc in
  check "exhaustive" true st.Interleave.complete;
  check "no violation" true (st.Interleave.violation = None);
  check "nontrivial state space" true (st.Interleave.states > 500)

let test_interleave_corpus () =
  (* The bundled 3-5-node corpus: every reachable state of every
     scenario satisfies acyclicity and the LFI conditions, and the
     corpus is big enough to mean something (>= 10k distinct states
     even under a per-scenario cap that keeps the test fast). *)
  let stats = List.map Interleave.explore (Interleave.bundled ~max_states:2_000 ()) in
  List.iter
    (fun st ->
      check
        (Printf.sprintf "%s: loop-free in all states" st.Interleave.scenario_name)
        true
        (st.Interleave.violation = None))
    stats;
  let total = List.fold_left (fun acc st -> acc + st.Interleave.states) 0 stats in
  check "corpus explores >= 10k states" true (total >= 10_000);
  (* The explored space itself is pinned: a copy that aliased router
     state between sibling states would visit other states. *)
  Alcotest.(check (list string))
    "explored space"
    [
      "triangle-3                       1903 states      6204 transitions  depth  24  exhaustive  ok";
      "line-3+cost-change               1062 states      2912 transitions  depth  24  exhaustive  ok";
      "triangle-3+cost-change+loss      2000 states      6862 transitions  depth   6  bounded  ok";
      "diamond-4                        2000 states      8204 transitions  depth  10  bounded  ok";
      "diamond-4+cost-change            2000 states      7801 transitions  depth   7  bounded  ok";
      "ring-4+loss                      2000 states      6572 transitions  depth   6  bounded  ok";
      "ring-5                           2000 states      7773 transitions  depth   6  bounded  ok";
    ]
    (List.map Interleave.render_stats stats)

let test_interleave_router_check () =
  (* Every explored state of the bundled corpus, every router: the
     incremental tables match their from-scratch rebuild
     (Router.check). The check is per router, so it runs once per
     state, at destination 0. *)
  let router_check =
    {
      Interleave.inv_name = "router-check";
      holds =
        (fun routers ~dst ->
          dst > 0
          || Array.for_all
               (fun r ->
                 match Mdr_routing.Router.check r with
                 | Ok () -> true
                 | Error m ->
                   prerr_endline m;
                   false)
               routers);
    }
  in
  List.iter
    (fun sc ->
      let st = Interleave.explore ~invariants:[ router_check ] sc in
      check
        (Printf.sprintf "%s: Router.check in all %d states" st.Interleave.scenario_name
           st.Interleave.states)
        true
        (st.Interleave.violation = None))
    (Interleave.bundled ~max_states:2_000 ())

(* Every router of every explored state, ACTIVE ones included,
   survives a snapshot round trip: the same bytes again, the writer's
   fingerprint, and Router.check on the restored router. Bytes already
   tried are not tried again. *)
let test_interleave_snapshot_roundtrip () =
  let module Router = Mdr_routing.Router in
  let tried = Hashtbl.create 4096 and active = ref 0 in
  let roundtrip ~n r =
    let bytes = Router.snapshot r in
    Hashtbl.mem tried bytes
    || begin
      Hashtbl.replace tried bytes ();
      if not (Router.is_passive r) then incr active;
      let r' = Router.restore ~n bytes in
      String.equal (Router.snapshot r') bytes
      && String.equal (Router.fingerprint r') (Router.fingerprint r)
      && Router.check r' = Ok ()
    end
  in
  let invariant =
    {
      Interleave.inv_name = "snapshot-roundtrip";
      holds =
        (fun routers ~dst ->
          dst > 0 || Array.for_all (roundtrip ~n:(Array.length routers)) routers);
    }
  in
  List.iter
    (fun sc ->
      let st = Interleave.explore ~invariants:[ invariant ] sc in
      check
        (Printf.sprintf "%s: round trip in all %d states" st.Interleave.scenario_name
           st.Interleave.states)
        true
        (st.Interleave.violation = None))
    (Interleave.bundled ~max_states:400 ());
  check "ACTIVE routers round-tripped" true (!active > 0)

let test_interleave_negative () =
  (* The checker must actually find violations when they exist: the
     deliberately too-strong feasibility condition fails on the plain
     triangle, and the reported trace is minimal and replayable. *)
  let sc = List.hd (Interleave.bundled ~max_states:100_000 ()) in
  match
    (Interleave.explore ~invariants:[ Interleave.broken_feasibility_invariant ] sc)
      .Interleave.violation
  with
  | None -> Alcotest.fail "broken invariant not caught"
  | Some v ->
    check "names the invariant" true
      (String.equal v.Interleave.failed "broken-feasibility-margin");
    check "trace is nonempty" true (v.Interleave.trace <> []);
    let rendered = Interleave.render_trace sc.Interleave.topo v in
    check "trace renders" true
      (String.length rendered > 0
      && String.length v.Interleave.failed > 0
      && String.sub rendered 0 9 = "invariant")

let test_interleave_deterministic () =
  (* Same scenario, same exploration: state counts and traces are a
     pure function of the scenario (no Hashtbl-order leakage). *)
  let explore () =
    let st = Interleave.explore (List.nth (Interleave.bundled ~max_states:1_500 ()) 3) in
    (st.Interleave.states, st.Interleave.transitions, st.Interleave.max_depth)
  in
  let a = explore () and b = explore () in
  check "replayed exploration identical" true (a = b)

(* --- Lint rules -------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let with_temp_repo f =
  let root =
    Filename.temp_file "mdr_lint_test" ""
    |> fun p ->
    Sys.remove p;
    Sys.mkdir p 0o755;
    p
  in
  List.iter
    (fun d -> Sys.mkdir (Filename.concat root d) 0o755)
    [ "lib"; "lib/routing"; "lib/util"; "lib/server"; "bin"; "lint" ];
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
    (fun () -> f root)

let violations_of report = List.map (fun v -> v.Lint.rule) report.Lint.violations

let test_lint_catches_seeded_violations () =
  with_temp_repo (fun root ->
      write_file
        (Filename.concat root "lib/routing/bad.ml")
        "let f x = x = 1.0\n\
         let g tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n\
         let h x = try x () with _ -> ()\n\
         let cast x = Obj.magic x\n";
      write_file (Filename.concat root "lib/clean.ml") "let id x = x\n";
      let report = Lint.run ~root () in
      let rules = violations_of report in
      check_int "files scanned" 2 report.Lint.files_scanned;
      check "float-compare caught" true (List.mem "float-compare" rules);
      check "hashtbl-iteration caught" true (List.mem "hashtbl-iteration" rules);
      check "catch-all caught" true (List.mem "catch-all-handler" rules);
      check "obj-magic caught" true (List.mem "obj-magic" rules);
      (* every violation carries a usable location *)
      List.iter
        (fun v ->
          check "has file" true (v.Lint.file <> "");
          check "has line" true (v.Lint.line > 0))
        report.Lint.violations)

let test_lint_scoping () =
  (* The Hashtbl rule only applies to the protocol directories: the
     same code outside them is legal. *)
  with_temp_repo (fun root ->
      let src = "let g tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n" in
      write_file (Filename.concat root "lib/routing/inscope.ml") src;
      write_file (Filename.concat root "bin/outofscope.ml") src;
      let report = Lint.run ~root () in
      match report.Lint.violations with
      | [ v ] ->
        check "flagged the scoped file" true
          (String.equal v.Lint.file "lib/routing/inscope.ml")
      | vs -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs)))

let test_lint_allowlist () =
  with_temp_repo (fun root ->
      write_file
        (Filename.concat root "lib/routing/waived.ml")
        "let g tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n";
      write_file
        (Filename.concat root "lint/hashtbl-iteration.allow")
        "# deliberate: benchmark scratch code\nlib/routing/waived.ml\n";
      let report = Lint.run ~root () in
      check_int "suppressed" 1 report.Lint.suppressed;
      check "no violations" true (report.Lint.violations = []))

let test_lint_stale_allowlist () =
  (* Allowlist hygiene: entries that no longer suppress anything —
     a line that moved, a file that was deleted — are reported as
     failures so waivers cannot outlive the code they excused. *)
  with_temp_repo (fun root ->
      write_file
        (Filename.concat root "lib/routing/waived.ml")
        "let g tbl = Hashtbl.iter (fun _ _ -> ()) tbl\n";
      write_file
        (Filename.concat root "lint/hashtbl-iteration.allow")
        "# live entry, then a line that matches nothing\n\
         lib/routing/waived.ml:1\n\
         lib/routing/waived.ml:99\n";
      write_file
        (Filename.concat root "lint/obj-magic.allow")
        "# entry for a file that no longer exists\nlib/routing/deleted.ml\n";
      let report = Lint.run ~root () in
      check_int "live entry suppresses" 1 report.Lint.suppressed;
      check "no violations" true (report.Lint.violations = []);
      let stale =
        List.map
          (fun s -> (s.Lint.stale_rule, s.Lint.stale_file, s.Lint.stale_line))
          report.Lint.stale_allow
      in
      check_int "exactly the two dead entries are stale" 2 (List.length stale);
      check "stale line entry reported" true
        (List.mem ("hashtbl-iteration", "lib/routing/waived.ml", Some 99) stale);
      check "stale deleted-file entry reported" true
        (List.mem ("obj-magic", "lib/routing/deleted.ml", None) stale);
      let rendered = Lint.render report in
      check "render names the stale entry" true
        (let contains needle hay =
           let nl = String.length needle and hl = String.length hay in
           let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
           go 0
         in
         contains "stale entry lib/routing/deleted.ml" rendered))

let test_lint_clean_and_float_helpers () =
  (* Float.equal / the epsilon helpers are the sanctioned spellings and
     must not be flagged. *)
  with_temp_repo (fun root ->
      write_file
        (Filename.concat root "lib/good.ml")
        "let f x y = Float.equal x y\n\
         let g x = Mdr_util.Float_cmp.approx x 1.0\n\
         let h (a : int) b = a = b\n";
      let report = Lint.run ~root () in
      check "clean" true (report.Lint.violations = []))

let test_lint_json () =
  with_temp_repo (fun root ->
      write_file (Filename.concat root "lib/bad.ml") "let f x = Obj.magic x\n";
      let report = Lint.run ~root () in
      let json = Lint.to_json report in
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      check "json mentions rule" true (contains "\"obj-magic\"" json);
      check "json carries the location" true (contains "\"line\"" json))

(* --- Whole-program effect checker (mdrsim check) ------------------------ *)

(* A fixture Pool with the same canonical ids as the real one
   ([lib/util] wrapped by a dune library named mdr_util), so the
   default pool-fn and sanitizer configuration is exercised as-is. *)
let write_fixture_util root =
  write_file
    (Filename.concat root "lib/util/dune")
    "(library\n (name mdr_util))\n";
  write_file
    (Filename.concat root "lib/util/pool.ml")
    "let map_array ?jobs f a =\n\
    \  ignore jobs;\n\
    \  Array.map f a\n\
     let init ?jobs n f =\n\
    \  ignore jobs;\n\
    \  Array.init n f\n";
  write_file
    (Filename.concat root "lib/util/sorted_tbl.ml")
    "let fold f t init = Hashtbl.fold f t init\n"

let race_fixture_bad =
  "let total = ref 0\n\
   let bump_global () = total := !total + 1\n\
   let fill (dst : float array) i = dst.(i) <- 1.0\n\n\
   let bad_capture xs =\n\
  \  let acc = ref 0 in\n\
  \  Mdr_util.Pool.map_array\n\
  \    (fun x ->\n\
  \      acc := !acc + x;\n\
  \      x)\n\
  \    xs\n\n\
   let bad_global xs =\n\
  \  Mdr_util.Pool.map_array\n\
  \    (fun x ->\n\
  \      bump_global ();\n\
  \      x)\n\
  \    xs\n\n\
   let bad_param out xs =\n\
  \  Mdr_util.Pool.map_array\n\
  \    (fun i ->\n\
  \      fill out i;\n\
  \      i)\n\
  \    xs\n\n\
   let bad_random xs = Mdr_util.Pool.map_array (fun x -> x + Random.int 3) xs\n"

let race_fixture_good =
  "let good_atomic xs =\n\
  \  let n = Atomic.make 0 in\n\
  \  let out =\n\
  \    Mdr_util.Pool.map_array\n\
  \      (fun x ->\n\
  \        Atomic.incr n;\n\
  \        x + 1)\n\
  \      xs\n\
  \  in\n\
  \  (Atomic.get n, out)\n\n\
   let good_readonly cfg xs = Mdr_util.Pool.map_array (fun x -> x + cfg) xs\n\n\
   let good_local xs =\n\
  \  Mdr_util.Pool.map_array\n\
  \    (fun x ->\n\
  \      let b = Buffer.create 8 in\n\
  \      Buffer.add_string b (string_of_int x);\n\
  \      Buffer.contents b)\n\
  \    xs\n"

let test_check_domain_race () =
  with_temp_repo (fun root ->
      write_fixture_util root;
      write_file (Filename.concat root "lib/race.ml") race_fixture_bad;
      write_file (Filename.concat root "lib/good.ml") race_fixture_good;
      let r = Check.run ~root () in
      let race =
        List.filter (fun f -> f.Report.rule = "domain-race") r.Report.findings
      in
      check_int "all findings are domain-race" (List.length r.Report.findings)
        (List.length race);
      check_int "exactly the four seeded races" 4 (List.length race);
      List.iter
        (fun f -> check "race findings point into race.ml" true
            (String.equal f.Report.file "lib/race.ml"))
        race;
      let msgs = String.concat "\n" (List.map (fun f -> f.Report.message) race) in
      check "captured ref mutation caught" true (contains_s "captured acc" msgs);
      check "callee global mutation caught" true (contains_s "bump_global" msgs);
      check "captured arg to mutating param caught" true
        (contains_s "passes captured out" msgs);
      check "Random in task caught" true (contains_s "Random.int" msgs))

let taint_fixture =
  "let helper tbl = Hashtbl.fold (fun k _ acc -> k + acc) tbl 0\n\
   let fingerprint tbl = string_of_int (helper tbl)\n\n\
   let sorted_fingerprint tbl =\n\
  \  string_of_int (Mdr_util.Sorted_tbl.fold (fun k _ acc -> k + acc) tbl 0)\n\n\
   let clean_fingerprint xs = String.concat \",\" (List.map string_of_int xs)\n"

let test_check_determinism_taint () =
  with_temp_repo (fun root ->
      write_fixture_util root;
      write_file (Filename.concat root "lib/det.ml") taint_fixture;
      let config =
        {
          Check.default_config with
          sinks =
            [ "Det.fingerprint"; "Det.sorted_fingerprint"; "Det.clean_fingerprint" ];
        }
      in
      let r = Check.run ~config ~root () in
      match r.Report.findings with
      | [ f ] ->
        check "rule" true (String.equal f.Report.rule "determinism-taint");
        check "located at the Hashtbl.fold use" true
          (String.equal f.Report.file "lib/det.ml" && f.Report.line = 1);
        check "message names source and sink" true
          (contains_s "Hashtbl.fold" f.Report.message
          && contains_s "hashtbl-order" f.Report.message
          && contains_s "Det.fingerprint" f.Report.message);
        check "message carries the witness chain" true
          (contains_s "Det.fingerprint -> Det.helper" f.Report.message)
      | fs ->
        Alcotest.fail
          (Printf.sprintf "expected exactly the tainted sink, got %d findings:\n%s"
             (List.length fs)
             (String.concat "\n" (List.map Report.render_finding fs))))

let crash_fixture =
  "let bad_publish path payload =\n\
  \  let tmp = path ^ \".tmp\" in\n\
  \  let oc = open_out tmp in\n\
  \  output_string oc payload;\n\
  \  close_out oc;\n\
  \  Sys.rename tmp path\n\n\
   let good_publish path payload =\n\
  \  let tmp = path ^ \".tmp\" in\n\
  \  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in\n\
  \  let oc = Unix.out_channel_of_descr fd in\n\
  \  output_string oc payload;\n\
  \  flush oc;\n\
  \  Unix.fsync fd;\n\
  \  close_out oc;\n\
  \  Sys.rename tmp path\n\n\
   let checkpoint path payload = good_publish path payload\n\n\
   let bad_swallow path payload = try good_publish path payload with Sys_error _ -> ()\n\n\
   let good_escalate path payload =\n\
  \  try good_publish path payload with Sys_error msg -> failwith msg\n\n\
   let good_targeted path =\n\
  \  try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()\n\n\
   let bad_broad path = try Unix.mkdir path 0o755 with Unix.Unix_error (_, _, _) -> ()\n"

let test_check_crash_safety () =
  with_temp_repo (fun root ->
      write_fixture_util root;
      write_file (Filename.concat root "lib/server/store.ml") crash_fixture;
      let r = Check.run ~root () in
      let msgs = List.map Report.render_finding r.Report.findings in
      check_int
        (Printf.sprintf "exactly the three seeded violations:\n%s"
           (String.concat "\n" msgs))
        3 (List.length r.Report.findings);
      List.iter
        (fun f ->
          check "rule" true (String.equal f.Report.rule "crash-safety");
          check "file" true (String.equal f.Report.file "lib/server/store.ml"))
        r.Report.findings;
      let all = String.concat "\n" msgs in
      check "rename without fsync caught" true
        (contains_s "rename without a preceding fsync" all);
      check "swallowed Sys_error caught" true (contains_s "Sys_error handler" all);
      check "broad Unix_error caught" true (contains_s "Unix_error handler" all);
      (* good_publish (fsync first, lines 8-16), checkpoint (fsync via
         callee, 18), good_escalate (re-raises, 22-23) and
         good_targeted (specific errno, 25-26) must not be flagged:
         only the three bad_* lines may appear. *)
      List.iter
        (fun f ->
          check "fsync-first / re-raise / targeted-errno accepted" true
            (List.mem f.Report.line [ 6; 20; 28 ]))
        r.Report.findings)

let test_check_allowlist_and_stale () =
  with_temp_repo (fun root ->
      write_fixture_util root;
      write_file (Filename.concat root "lib/race.ml") race_fixture_bad;
      write_file
        (Filename.concat root "lint/domain-race.allow")
        "# the seeded fixture, waived wholesale\n\
         lib/race.ml\n\
         lib/race.ml:99\n";
      let r = Check.run ~root () in
      check "whole-file entry suppresses all findings" true (r.Report.findings = []);
      check_int "suppressed count" 4 r.Report.suppressed;
      (match r.Report.stale_allow with
      | [ s ] ->
        check "stale line entry reported" true
          (String.equal s.Report.stale_rule "domain-race"
          && String.equal s.Report.stale_file "lib/race.ml"
          && s.Report.stale_line = Some 99)
      | ss -> Alcotest.fail (Printf.sprintf "expected 1 stale entry, got %d" (List.length ss)));
      check "stale entry keeps the report dirty" false (Report.clean r))

let test_effects_summaries () =
  (* Unit-level checks on the effect lattice itself, through the same
     fixture the rules see. *)
  with_temp_repo (fun root ->
      write_fixture_util root;
      write_file (Filename.concat root "lib/race.ml") race_fixture_bad;
      write_file (Filename.concat root "lib/det.ml") taint_fixture;
      write_file (Filename.concat root "lib/server/store.ml") crash_fixture;
      let graph = Callgraph.build ~root () in
      let eff = Effects.analyze graph in
      let summary id =
        match Effects.summary_of eff id with
        | Some s -> s
        | None -> Alcotest.fail ("no summary for " ^ id)
      in
      check "bump_global mutates module state" true
        ((summary "Race.bump_global").Effects.mutates_global <> None);
      check "fill mutates its dst parameter" true
        (List.mem_assoc "dst" (summary "Race.fill").Effects.mutated_params);
      let gp = summary "Store.good_publish" in
      check "good_publish does I/O, fsyncs and renames" true
        (gp.Effects.io <> None && gp.Effects.calls_fsync && gp.Effects.calls_rename);
      check "checkpoint inherits fsync through the call" true
        ((summary "Store.checkpoint").Effects.calls_fsync);
      check "helper is hashtbl-order nondeterministic" true
        (List.mem_assoc Effects.Hashtbl_order (summary "Det.helper").Effects.nondet);
      check "fingerprint inherits the taint" true
        (List.mem_assoc Effects.Hashtbl_order
           (summary "Det.fingerprint").Effects.nondet);
      (match Effects.nondet_chain eff "Det.fingerprint" Effects.Hashtbl_order with
      | chain, Some prim ->
        check "chain walks sink -> helper" true
          (chain = [ "Det.fingerprint"; "Det.helper" ]);
        check "witness is the primitive use" true
          (String.equal prim.Effects.p_name "Hashtbl.fold"
          && String.equal prim.Effects.p_file "lib/det.ml")
      | _, None -> Alcotest.fail "no witness chain for the tainted sink");
      check "Sorted_tbl is a determinism barrier" true
        ((summary "Mdr_util.Sorted_tbl.fold").Effects.nondet = []))

let test_sarif_output () =
  with_temp_repo (fun root ->
      write_file (Filename.concat root "lib/bad.ml") "let f x = Obj.magic x\n";
      write_file
        (Filename.concat root "lint/float-compare.allow")
        "lib/deleted.ml\n";
      let sarif = Lint.to_sarif (Lint.run ~root ()) in
      check "SARIF version" true (contains_s "\"version\": \"2.1.0\"" sarif);
      check "rule id present" true (contains_s "\"obj-magic\"" sarif);
      check "finding location present" true (contains_s "lib/bad.ml" sarif);
      check "stale entries become results" true
        (contains_s "stale-allowlist-entry" sarif);
      write_fixture_util root;
      write_file (Filename.concat root "lib/race.ml") race_fixture_bad;
      let sarif = Report.to_sarif (Check.run ~root ()) in
      check "check SARIF names its tool" true (contains_s "mdrsim-check" sarif);
      check "check SARIF carries domain-race" true (contains_s "domain-race" sarif))

let test_self_scan_clean_and_allowlists_minimal () =
  (* The repo must pass its own analyzers, and every allowlist entry
     must still be earning its keep (no stale waivers, no .allow file
     for a rule that does not exist). *)
  (* The first ancestor holding a dune-project that is not dune's copy
     of the tree under _build/<context>. *)
  let rec find_source_root dir =
    if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Filename.basename (Filename.dirname dir) <> "_build"
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_source_root parent
  in
  match find_source_root (Sys.getcwd ()) with
  | None -> Alcotest.fail "cannot locate the source root from the test cwd"
  | Some root ->
    let lint = Lint.run ~root () in
    check "lint: repo is clean" true (lint.Lint.violations = []);
    check "lint: no stale allowlist entries" true (lint.Lint.stale_allow = []);
    let r = Check.run ~root () in
    check "check: repo is clean" true (r.Report.findings = []);
    check "check: no stale allowlist entries" true (r.Report.stale_allow = []);
    check "check: scanned the whole tree" true (r.Report.files_scanned > 60);
    (* Every .allow file must belong to a rule some pass actually runs,
       or a typo'd file would waive nothing forever without failing. *)
    let known =
      List.map (fun (ru : Lint.rule) -> ru.Lint.name) Lint.rules
      @ List.map fst Check.rules
    in
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".allow" then
          check
            (Printf.sprintf "lint/%s names a live rule" f)
            true
            (List.mem (Filename.chop_suffix f ".allow") known))
      (Sys.readdir (Filename.concat root "lint"))

(* --- Determinism sanitizer --------------------------------------------- *)

let test_determinism_harness_detects_divergence () =
  let counter = ref 0 in
  let flaky () =
    incr counter;
    string_of_int !counter
  in
  let o = Determinism.run_check ("flaky", flaky) in
  check "divergence detected" false o.Determinism.deterministic;
  let o = Determinism.run_check ("steady", fun () -> "same") in
  check "steady trace passes" true o.Determinism.deterministic

let test_determinism_fluid () =
  let o = Determinism.run_check ("fluid-sp-opt", Determinism.fluid_trace ~load:0.9) in
  check "fluid pipeline deterministic" true o.Determinism.deterministic

let test_determinism_chaos () =
  let o = Determinism.run_check ("chaos", Determinism.chaos_trace ~seed:11) in
  check "chaos campaign deterministic" true o.Determinism.deterministic

let test_determinism_netsim () =
  let o = Determinism.run_check ("netsim", Determinism.netsim_trace ~seed:11) in
  check "packet simulator deterministic" true o.Determinism.deterministic

let suite =
  [
    Alcotest.test_case "LFI: single node" `Quick test_lfi_single_node;
    Alcotest.test_case "LFI: disconnected destination" `Quick
      test_lfi_disconnected_destination;
    Alcotest.test_case "LFI: self-loop successor" `Quick test_lfi_self_loop_successor;
    Alcotest.test_case "LFI: empty successor sets" `Quick test_lfi_empty_successor_sets;
    Alcotest.test_case "LFI: 2-cycle rejected" `Quick test_lfi_two_cycle;
    Alcotest.test_case "LFI: Eq. 16 violation detected" `Quick test_lfi_violation_detected;
    Alcotest.test_case "interleave: triangle exhaustive, loop-free" `Slow
      test_interleave_triangle_exhaustive;
    Alcotest.test_case "interleave: bundled corpus >= 10k states, loop-free" `Slow
      test_interleave_corpus;
    Alcotest.test_case "interleave: Router.check in every explored state" `Slow
      test_interleave_router_check;
    Alcotest.test_case "interleave: snapshot round trip in every explored state" `Quick
      test_interleave_snapshot_roundtrip;
    Alcotest.test_case "interleave: broken invariant yields minimal trace" `Quick
      test_interleave_negative;
    Alcotest.test_case "interleave: exploration is deterministic" `Slow
      test_interleave_deterministic;
    Alcotest.test_case "lint: seeded violations caught with locations" `Quick
      test_lint_catches_seeded_violations;
    Alcotest.test_case "lint: rules respect directory scopes" `Quick test_lint_scoping;
    Alcotest.test_case "lint: allowlist suppresses" `Quick test_lint_allowlist;
    Alcotest.test_case "lint: stale allowlist entries fail" `Quick
      test_lint_stale_allowlist;
    Alcotest.test_case "lint: sanctioned float spellings pass" `Quick
      test_lint_clean_and_float_helpers;
    Alcotest.test_case "lint: JSON report" `Quick test_lint_json;
    Alcotest.test_case "check: domain races in Pool tasks" `Quick
      test_check_domain_race;
    Alcotest.test_case "check: determinism taint into sinks" `Quick
      test_check_determinism_taint;
    Alcotest.test_case "check: crash-safety of write paths" `Quick
      test_check_crash_safety;
    Alcotest.test_case "check: allowlist suppresses, stale fails" `Quick
      test_check_allowlist_and_stale;
    Alcotest.test_case "effects: summaries and witness chains" `Quick
      test_effects_summaries;
    Alcotest.test_case "report: SARIF output" `Quick test_sarif_output;
    Alcotest.test_case "self-scan: repo clean, allowlists minimal" `Quick
      test_self_scan_clean_and_allowlists_minimal;
    Alcotest.test_case "determinism: harness detects divergence" `Quick
      test_determinism_harness_detects_divergence;
    Alcotest.test_case "determinism: fluid SP/OPT" `Slow test_determinism_fluid;
    Alcotest.test_case "determinism: chaos campaign" `Slow test_determinism_chaos;
    Alcotest.test_case "determinism: packet simulator MP/SP" `Slow
      test_determinism_netsim;
  ]
