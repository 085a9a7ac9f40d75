(* The crash-safe route-server: codec framing and CRC detection, the
   journal/snapshot crash discipline (torn tails, atomic replacement),
   backpressure (coalescing, damping, shedding), the watchdog, and the
   headline property — restore + replay reproduces the uninterrupted
   run's fingerprint byte-for-byte for random kill schedules. *)

module Codec = Mdr_server.Codec
module Update = Mdr_server.Update
module Journal = Mdr_server.Journal
module Snapshot = Mdr_server.Snapshot
module Ingest = Mdr_server.Ingest
module Server = Mdr_server.Server
module Audit = Mdr_server.Audit
module Procfault = Mdr_faults.Procfault
module Cost_trigger = Mdr_routing.Cost_trigger
module Graph = Mdr_topology.Graph
module Rng = Mdr_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---- scratch directories --------------------------------------------- *)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdr_server_test.%d.%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* ---- fixture topology ------------------------------------------------ *)

(* Six nodes, eight duplex links: two cycles sharing edges, so every
   node has a real multipath choice and a failure never partitions. *)
let small_topo () =
  let g = Graph.create ~names:[| "a"; "b"; "c"; "d"; "e"; "f" |] in
  Graph.add_duplex g "a" "b" ~capacity:1.0e6 ~prop_delay:0.001;
  Graph.add_duplex g "b" "c" ~capacity:1.0e6 ~prop_delay:0.002;
  Graph.add_duplex g "c" "d" ~capacity:1.0e6 ~prop_delay:0.001;
  Graph.add_duplex g "d" "e" ~capacity:1.0e6 ~prop_delay:0.003;
  Graph.add_duplex g "e" "f" ~capacity:1.0e6 ~prop_delay:0.001;
  Graph.add_duplex g "f" "a" ~capacity:1.0e6 ~prop_delay:0.002;
  Graph.add_duplex g "a" "d" ~capacity:1.0e6 ~prop_delay:0.005;
  Graph.add_duplex g "b" "e" ~capacity:1.0e6 ~prop_delay:0.004;
  g

let cost = Procfault.default_base_cost

let stream topo ~seed ~updates =
  List.map Update.of_procfault
    (Procfault.stream ~rng:(Rng.substream ~seed ~index:0) ~topo ~updates ())

(* ---- codec ----------------------------------------------------------- *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_codec_roundtrip () =
  with_dir (fun d ->
      let path = Filename.concat d "rec.bin" in
      write_file path (Codec.frame "hello" ^ Codec.frame "");
      let ic = open_in_bin path in
      (match Codec.read_record ic with
      | Codec.Record r -> check_str "payload" "hello" r
      | Codec.Torn _ | Codec.Eof -> Alcotest.fail "expected record");
      (match Codec.read_record ic with
      | Codec.Record r -> check_str "empty payload" "" r
      | Codec.Torn _ | Codec.Eof -> Alcotest.fail "expected empty record");
      (match Codec.read_record ic with
      | Codec.Eof -> ()
      | Codec.Record _ | Codec.Torn _ -> Alcotest.fail "expected eof");
      close_in ic)

let test_codec_detects_corruption () =
  with_dir (fun d ->
      let path = Filename.concat d "rec.bin" in
      let framed = Bytes.of_string (Codec.frame "payload-bytes") in
      (* flip one payload bit; the CRC must catch it *)
      let i = Bytes.length framed - 3 in
      Bytes.set framed i (Char.chr (Char.code (Bytes.get framed i) lxor 1));
      write_file path (Bytes.to_string framed);
      let ic = open_in_bin path in
      (match Codec.read_record ic with
      | Codec.Torn reason ->
          check "mentions crc" true
            (String.length reason > 0 (* any reason; must not be a Record *))
      | Codec.Record _ -> Alcotest.fail "corruption not detected"
      | Codec.Eof -> Alcotest.fail "unexpected eof");
      close_in ic)

let test_codec_short_record () =
  with_dir (fun d ->
      let path = Filename.concat d "rec.bin" in
      let whole = Codec.frame "something long enough" in
      write_file path (String.sub whole 0 (String.length whole - 4));
      let ic = open_in_bin path in
      (match Codec.read_record ic with
      | Codec.Torn _ -> ()
      | Codec.Record _ -> Alcotest.fail "short record accepted"
      | Codec.Eof -> Alcotest.fail "unexpected eof");
      close_in ic)

(* ---- update codec ---------------------------------------------------- *)

let test_update_roundtrip () =
  List.iter
    (fun u -> check "roundtrip" true (Update.decode (Update.encode u) = u))
    [
      Update.Set_cost { src = 0; dst = 1; cost = 3.25 };
      Update.Set_cost { src = 5; dst = 2; cost = 1.0e-9 };
      Update.Link_down { a = 4; b = 3 };
      Update.Link_up { a = 2; b = 5; cost = 42.0 };
    ];
  match Update.decode "\255garbage" with
  | _ -> Alcotest.fail "unknown tag accepted"
  | exception Update.Corrupt _ -> ()

(* A bare update is the v1 journal record; journal replay refuses v1
   by version, so the entry decoder must not read one as a write. *)
let test_update_bare_entry_refused () =
  List.iter
    (fun u ->
      match Update.decode_entry (Update.encode u) with
      | _ -> Alcotest.fail "bare update decoded as a journal entry"
      | exception Update.Corrupt _ -> ())
    [
      Update.Set_cost { src = 0; dst = 1; cost = 3.25 };
      Update.Link_down { a = 4; b = 3 };
      Update.Link_up { a = 2; b = 5; cost = 42.0 };
    ]

let test_update_validate () =
  let topo = small_topo () in
  let rejects u =
    match Update.validate topo u with
    | () -> Alcotest.fail "invalid update accepted"
    | exception Invalid_argument _ -> ()
  in
  Update.validate topo (Update.Set_cost { src = 0; dst = 1; cost = 2.0 });
  rejects (Update.Set_cost { src = 0; dst = 2; cost = 2.0 }) (* no a-c link *);
  rejects (Update.Set_cost { src = 0; dst = 1; cost = 0.0 });
  rejects (Update.Set_cost { src = 0; dst = 1; cost = infinity });
  rejects (Update.Link_down { a = 0; b = 2 });
  rejects (Update.Link_up { a = 0; b = 0; cost = 1.0 })

(* ---- journal --------------------------------------------------------- *)

let test_journal_roundtrip () =
  with_dir (fun d ->
      let path = Filename.concat d "journal.bin" in
      let j = Journal.create ~path () in
      for seq = 1 to 5 do
        Journal.append j ~seq ~payload:(Printf.sprintf "u%d" seq)
      done;
      check_int "records" 5 (Journal.records j);
      Journal.close j;
      let r = Journal.replay ~path in
      check "not torn" false r.Journal.torn;
      check_int "entries" 5 (List.length r.Journal.entries);
      List.iteri
        (fun i (seq, payload) ->
          check_int "seq" (i + 1) seq;
          check_str "payload" (Printf.sprintf "u%d" (i + 1)) payload)
        r.Journal.entries)

let test_journal_torn_tail () =
  with_dir (fun d ->
      let path = Filename.concat d "journal.bin" in
      let j = Journal.create ~path () in
      for seq = 1 to 3 do
        Journal.append j ~seq ~payload:"clean"
      done;
      (* simulated kill mid-append: record 4 is cut short *)
      Journal.append ~torn_after:5 j ~seq:4 ~payload:"lost-update";
      (match Journal.append j ~seq:5 ~payload:"after-death" with
      | () -> Alcotest.fail "append on a dead journal succeeded"
      | exception Invalid_argument _ -> ());
      let r = Journal.replay ~path in
      check "torn tail skipped" true r.Journal.torn;
      check_int "clean entries survive" 3 (List.length r.Journal.entries);
      (* reopen: the torn tail must be truncated before new appends *)
      let j2, r2 = Journal.open_append ~path () in
      check_int "replay on open" 3 (List.length r2.Journal.entries);
      Journal.append j2 ~seq:4 ~payload:"retried";
      Journal.close j2;
      let r3 = Journal.replay ~path in
      check "clean after retry" false r3.Journal.torn;
      check_int "retried record readable" 4 (List.length r3.Journal.entries))

let test_journal_corrupt_header () =
  with_dir (fun d ->
      let path = Filename.concat d "journal.bin" in
      write_file path "not a journal at all";
      match Journal.replay ~path with
      | _ -> Alcotest.fail "corrupt header accepted"
      | exception Failure _ -> ())

(* ---- snapshot -------------------------------------------------------- *)

let test_snapshot_atomic_replace () =
  with_dir (fun d ->
      let path = Filename.concat d "snapshot.bin" in
      check "initially missing" true
        (match Snapshot.read ~path with `Missing -> true | _ -> false);
      (match Snapshot.write ~path "state-v1" with
      | `Ok -> ()
      | `Torn -> Alcotest.fail "unexpected torn");
      (* a kill mid-write leaves the old snapshot untouched *)
      (match Snapshot.write ~torn_after:7 ~path "state-v2-much-longer" with
      | `Torn -> ()
      | `Ok -> Alcotest.fail "torn write reported ok");
      (match Snapshot.read ~path with
      | `Snapshot s -> check_str "old snapshot intact" "state-v1" s
      | `Missing | `Corrupt _ -> Alcotest.fail "old snapshot lost");
      check "stale tmp left" true (Sys.file_exists (path ^ ".tmp"));
      Snapshot.remove_stale_tmp ~path;
      check "stale tmp removed" false (Sys.file_exists (path ^ ".tmp"));
      (match Snapshot.write ~path "state-v2" with
      | `Ok -> ()
      | `Torn -> Alcotest.fail "unexpected torn");
      match Snapshot.read ~path with
      | `Snapshot s -> check_str "replaced" "state-v2" s
      | `Missing | `Corrupt _ -> Alcotest.fail "replacement unreadable")

let test_snapshot_detects_corruption () =
  with_dir (fun d ->
      let path = Filename.concat d "snapshot.bin" in
      (match Snapshot.write ~path "some server state" with
      | `Ok -> ()
      | `Torn -> Alcotest.fail "unexpected torn");
      let raw = Bytes.of_string (read_file path) in
      let i = Bytes.length raw - 2 in
      Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 0x10));
      write_file path (Bytes.to_string raw);
      match Snapshot.read ~path with
      | `Corrupt _ -> ()
      | `Snapshot _ -> Alcotest.fail "corruption not detected"
      | `Missing -> Alcotest.fail "file exists")

(* ---- ingest (backpressure) ------------------------------------------- *)

let flat_cost ~src:_ ~dst:_ = 10.0

let test_ingest_coalesce () =
  let t = Ingest.create ~capacity:4 ~initial_cost:flat_cost () in
  Ingest.offer t ~now:0.0 (Update.Set_cost { src = 0; dst = 1; cost = 5.0 });
  Ingest.offer t ~now:0.1 (Update.Set_cost { src = 0; dst = 1; cost = 7.0 });
  Ingest.offer t ~now:0.2 (Update.Set_cost { src = 1; dst = 0; cost = 6.0 });
  check_int "coalesced into two slots" 2 (Ingest.depth t);
  (match Ingest.drain t ~now:0.3 with
  | [ Update.Set_cost { src = 0; dst = 1; cost }; Update.Set_cost _ ] ->
      check "latest value wins" true (Float.equal cost 7.0)
  | _ -> Alcotest.fail "unexpected drain");
  check_int "coalesce counted" 1 (Ingest.stats t).Ingest.coalesced

let test_ingest_shed_and_degraded () =
  let t = Ingest.create ~degraded_hold:5.0 ~capacity:2 ~initial_cost:flat_cost () in
  Ingest.offer t ~now:0.0 (Update.Set_cost { src = 0; dst = 1; cost = 1.0 });
  Ingest.offer t ~now:0.0 (Update.Set_cost { src = 2; dst = 3; cost = 1.0 });
  check "full queue" true (match Ingest.status t ~now:0.0 with
    | `Degraded -> true | `Ok -> false);
  Ingest.offer t ~now:1.0 (Update.Set_cost { src = 4; dst = 5; cost = 1.0 });
  check_int "third cost shed" 1 (Ingest.stats t).Ingest.shed;
  (* topology truth is never shed, even past the bound *)
  Ingest.offer t ~now:1.0 (Update.Link_down { a = 0; b = 1 });
  check_int "link event enqueued past bound" 3 (Ingest.depth t);
  check_int "drained in arrival order" 3 (List.length (Ingest.drain t ~now:1.0));
  check "degraded holds after shed" true
    (match Ingest.status t ~now:2.0 with `Degraded -> true | `Ok -> false);
  check "recovers after hold" true
    (match Ingest.status t ~now:9.0 with `Ok -> true | `Degraded -> false)

let test_ingest_damping () =
  let params =
    { Cost_trigger.rel_threshold = 0.3; hold = 1.0; damping = None }
  in
  let t = Ingest.create ~damping:params ~capacity:8 ~initial_cost:flat_cost () in
  (* sub-threshold wobble is absorbed before it takes queue space *)
  Ingest.offer t ~now:0.0 (Update.Set_cost { src = 0; dst = 1; cost = 10.4 });
  check_int "absorbed" 1 (Ingest.stats t).Ingest.absorbed;
  check_int "queue untouched" 0 (Ingest.depth t);
  (* the first significant change passes immediately *)
  Ingest.offer t ~now:0.0 (Update.Set_cost { src = 0; dst = 1; cost = 20.0 });
  (match Ingest.drain t ~now:0.0 with
  | [ Update.Set_cost { cost; _ } ] -> check "applied" true (Float.equal cost 20.0)
  | _ -> Alcotest.fail "significant change not released");
  (* the next one is held down and released when the timer expires *)
  Ingest.offer t ~now:0.1 (Update.Set_cost { src = 0; dst = 1; cost = 40.0 });
  check_int "held, not queued" 0 (Ingest.depth t);
  check_int "timer armed" 1 (Ingest.pending_timers t);
  check_int "not due yet" 0 (List.length (Ingest.drain t ~now:0.2));
  match Ingest.drain t ~now:5.0 with
  | [ Update.Set_cost { cost; _ } ] ->
      check "held value released" true (Float.equal cost 40.0)
  | _ -> Alcotest.fail "hold-down never released"

(* ---- server ---------------------------------------------------------- *)

let test_server_genesis_deterministic () =
  let topo = small_topo () in
  with_dir (fun d1 ->
      with_dir (fun d2 ->
          let s1 = Server.create ~dir:d1 ~topo ~cost () in
          let s2 = Server.create ~dir:d2 ~topo ~cost () in
          check "settled" true (Server.settled s1);
          check "lfi" true (Server.lfi_ok s1);
          check_str "genesis fingerprint deterministic" (Server.fingerprint s1)
            (Server.fingerprint s2);
          let r = Server.route s1 ~src:0 ~dst:3 in
          check "finite distance" true (Float.is_finite r.Server.distance);
          check "has successors" true (r.Server.successors <> []);
          let split = Server.split s1 ~src:0 ~dst:3 in
          let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 split in
          check "split sums to 1" true (Float.abs (total -. 1.0) < 1.0e-9);
          Server.close s1;
          Server.close s2))

let test_server_close_restore_identity () =
  let topo = small_topo () in
  with_dir (fun d ->
      let s = Server.create ~dir:d ~topo ~cost () in
      List.iteri
        (fun i u -> Server.apply s ~now:(float_of_int (i + 1)) u)
        (stream topo ~seed:11 ~updates:15);
      let fp = Server.fingerprint s in
      let seq = Server.seq s in
      Server.close s;
      let s' = Server.restore ~dir:d ~topo ~cost () in
      check_int "seq preserved" seq (Server.seq s');
      check_str "fingerprint preserved" fp (Server.fingerprint s');
      check "lfi after restore" true (Server.lfi_ok s');
      Server.close s')

let test_server_resume_from_seq () =
  (* A mid-journal kill loses exactly the torn update; the client
     resumes from seq + 1 and the final states converge. *)
  let topo = small_topo () in
  let updates = stream topo ~seed:23 ~updates:12 in
  with_dir (fun d_ref ->
      with_dir (fun d ->
          let r = Server.create ~dir:d_ref ~topo ~cost () in
          List.iteri
            (fun i u -> Server.apply r ~now:(float_of_int (i + 1)) u)
            updates;
          let s = Server.create ~dir:d ~topo ~cost () in
          let rest = ref [] in
          List.iteri
            (fun i u ->
              if i < 7 then Server.apply s ~now:(float_of_int (i + 1)) u
              else rest := u :: !rest)
            updates;
          let rest = List.rev !rest in
          (* kill mid-append of update 8 *)
          (match rest with
          | u :: _ ->
              Server.apply ~torn_after:9 s ~now:8.0 u;
              check "dead after torn append" false (Server.alive s)
          | [] -> Alcotest.fail "stream too short");
          let s' = Server.restore ~dir:d ~topo ~cost () in
          check_int "torn update not accepted" 7 (Server.seq s');
          (* client resumes from seq + 1: re-send the lost update and
             everything after it *)
          List.iteri
            (fun i u -> Server.apply s' ~now:(float_of_int (8 + i)) u)
            rest;
          check_int "caught up" 12 (Server.seq s');
          check_str "converged with reference" (Server.fingerprint r)
            (Server.fingerprint s');
          Server.close s';
          Server.close r))

let test_server_watchdog () =
  let topo = small_topo () in
  with_dir (fun d ->
      let config =
        {
          Server.default_config with
          snapshot_every = 0;
          queue_capacity = 1;
          max_staleness = 5.0;
          max_replay = 4;
        }
      in
      let s = Server.create ~config ~dir:d ~topo ~cost () in
      (* [create] stamps freshness with the wall clock, so drive the
         watchdog with wall-clock-relative nows *)
      let t0 = Unix.gettimeofday () in
      (* fresh server, nothing applied: stale once the budget passes *)
      let alarms = Server.heartbeat s ~now:(t0 +. 100.0) in
      check "stale alarm" true
        (List.exists
           (function Server.Stale _ -> true | _ -> false)
           alarms);
      (* journal outgrows the replay budget with snapshots disabled *)
      List.iteri
        (fun i u -> Server.apply s ~now:(t0 +. (float_of_int i /. 10.0)) u)
        (stream topo ~seed:3 ~updates:6);
      let alarms = Server.heartbeat s ~now:(t0 +. 0.6) in
      check "replay-lag alarm" true
        (List.exists
           (function
             | Server.Replay_lag { records; budget } -> records > budget
             | _ -> false)
           alarms);
      check "no stale alarm when fresh" false
        (List.exists
           (function Server.Stale _ -> true | _ -> false)
           alarms);
      (* overflow the 1-slot queue: shed must be reported once *)
      Server.offer s ~now:(t0 +. 1.0)
        (Update.Set_cost { src = 0; dst = 1; cost = 9.0 });
      Server.offer s ~now:(t0 +. 1.0)
        (Update.Set_cost { src = 1; dst = 2; cost = 9.0 });
      let alarms = Server.heartbeat s ~now:(t0 +. 1.0) in
      check "shedding alarm" true
        (List.exists
           (function Server.Shedding { shed } -> shed = 1 | _ -> false)
           alarms);
      let alarms = Server.heartbeat s ~now:(t0 +. 1.1) in
      check "shed reported once" false
        (List.exists
           (function Server.Shedding _ -> true | _ -> false)
           alarms);
      check "degraded status" true
        (match (Server.health s ~now:(t0 +. 1.2)).Server.status with
        | Server.Degraded -> true
        | Server.Ok -> false);
      Server.close s)

let test_server_rejects_bad_input () =
  let topo = small_topo () in
  with_dir (fun d ->
      let s = Server.create ~dir:d ~topo ~cost () in
      (match Server.apply s ~now:1.0 (Update.Set_cost { src = 0; dst = 2; cost = 1.0 }) with
      | () -> Alcotest.fail "nonexistent link accepted"
      | exception Invalid_argument _ -> ());
      check_int "nothing journaled" 0 (Server.seq s);
      (match Server.route s ~src:0 ~dst:99 with
      | _ -> Alcotest.fail "out-of-range node accepted"
      | exception Invalid_argument _ -> ());
      Server.close s;
      match Server.apply s ~now:2.0 (Update.Set_cost { src = 0; dst = 1; cost = 2.0 }) with
      | () -> Alcotest.fail "apply after close accepted"
      | exception Invalid_argument _ -> ())

(* Satellite: corruption survivals are counted and alarmed, not just
   logged — "clean" and "survived corruption" must be telling apart
   from the health record alone. *)
let test_corruption_counters_torn_tail () =
  let topo = small_topo () in
  with_dir (fun d ->
      let s = Server.create ~dir:d ~topo ~cost () in
      Server.apply s ~now:1.0 (Update.Set_cost { src = 0; dst = 1; cost = 2.0 });
      Server.apply s ~now:2.0 (Update.Set_cost { src = 1; dst = 2; cost = 3.0 });
      Server.apply s ~torn_after:6 ~now:3.0
        (Update.Set_cost { src = 2; dst = 3; cost = 4.0 });
      let s = Server.restore ~now:4.0 ~dir:d ~topo ~cost () in
      let h = Server.health s ~now:4.0 in
      check_int "torn tail counted" 1 h.Server.corruption.Server.torn_tails;
      check_int "no snapshot fallback" 0 h.Server.corruption.Server.snapshot_fallbacks;
      let alarms = Server.heartbeat s ~now:4.1 in
      check "survived-corruption alarm" true
        (List.exists
           (function
             | Server.Survived_corruption { torn_tails = 1; snapshot_fallbacks = 0 } ->
                 true
             | _ -> false)
           alarms);
      check "alarm fires once" false
        (List.exists
           (function Server.Survived_corruption _ -> true | _ -> false)
           (Server.heartbeat s ~now:4.2));
      Server.close s)

let test_corruption_counters_snapshot_fallback () =
  let topo = small_topo () in
  with_dir (fun d ->
      let s = Server.create ~dir:d ~topo ~cost () in
      Server.apply s ~now:1.0 (Update.Set_cost { src = 0; dst = 1; cost = 2.0 });
      Server.apply s ~now:2.0 (Update.Link_down { a = 1; b = 2 });
      let fp = Server.fingerprint s in
      Server.close s;
      (* a snapshot file of garbage: unreadable, abandoned for genesis
         + journal replay, and counted *)
      write_file (Filename.concat d "snapshot.bin") "not a snapshot at all";
      let s = Server.restore ~now:3.0 ~dir:d ~topo ~cost () in
      check_str "state rebuilt from journal" fp (Server.fingerprint s);
      let h = Server.health s ~now:3.0 in
      check_int "fallback counted" 1 h.Server.corruption.Server.snapshot_fallbacks;
      check "alarmed" true
        (List.exists
           (function Server.Survived_corruption _ -> true | _ -> false)
           (Server.heartbeat s ~now:3.1));
      (* a checkpoint replaces the garbage; the next restore is clean *)
      Server.checkpoint s;
      Server.close s;
      let s2 = Server.restore ~now:5.0 ~dir:d ~topo ~cost () in
      let h2 = Server.health s2 ~now:5.0 in
      check "clean restore reports clean" true
        (h2.Server.corruption.Server.torn_tails = 0
        && h2.Server.corruption.Server.snapshot_fallbacks = 0);
      check_str "still the same state" fp (Server.fingerprint s2);
      Server.close s2)

(* Snapshot payloads hold Router.snapshot's Marshal bytes, which only a
   build with the same router layout can read. A snapshot file of the
   previous format version must be refused on its header alone and the
   state rebuilt from genesis + journal, never unmarshalled. The
   directory is the one a kill between the snapshot rename and the
   journal reset leaves: a snapshot plus a journal holding every
   record. *)
let test_old_snapshot_version_falls_back () =
  let topo = small_topo () in
  with_dir (fun d ->
      let journal = Filename.concat d "journal.bin" in
      let snapshot = Filename.concat d "snapshot.bin" in
      let s = Server.create ~dir:d ~topo ~cost () in
      List.iteri
        (fun i u -> Server.apply s ~now:(float_of_int (i + 1)) u)
        (stream topo ~seed:31 ~updates:12);
      let fp = Server.fingerprint s in
      let records = read_file journal in
      Server.checkpoint s;
      Server.close s;
      write_file journal records;
      let restored ~now =
        let s = Server.restore ~now ~dir:d ~topo ~cost () in
        let h = Server.health s ~now in
        let from_snapshot =
          match h.Server.last_restore with
          | Some r -> r.Server.from_snapshot
          | None -> Alcotest.fail "no restore info"
        in
        let r = (Server.fingerprint s, from_snapshot, h.Server.corruption) in
        Server.close s;
        r
      in
      let header v = Codec.header ~magic:"MDRS" ~version:v in
      let bytes = read_file snapshot in
      check_str "written as v5" (header 5) (String.sub bytes 0 Codec.header_len);
      let fp5, from5, c5 = restored ~now:20.0 in
      check_str "v5 restores the writer's state" fp fp5;
      check "v5 read from the snapshot" true from5;
      check_int "v5 no fallback" 0 c5.Server.snapshot_fallbacks;
      (* Older layouts are refused by their header and rebuilt from
         genesis + journal; each restore counts one fallback. *)
      List.iteri
        (fun i v ->
          write_file snapshot
            (header v ^ String.sub bytes Codec.header_len
                          (String.length bytes - Codec.header_len));
          let fp', from', c' = restored ~now:(21.0 +. float_of_int i) in
          let what = Printf.sprintf "v%d" v in
          check_str (what ^ " rebuilt to the writer's state") fp fp';
          check (what ^ " not read") false from';
          check_int (what ^ " fallback counted") 1 c'.Server.snapshot_fallbacks)
        [ 4; 3; 2 ])

(* ---- audit ----------------------------------------------------------- *)

let test_audit_small () =
  let topo = small_topo () in
  with_dir (fun d ->
      let r = Audit.run ~updates:20 ~kills:3 ~dir:d ~topo ~seed:42 () in
      check "audit passes" true (Audit.ok r);
      check_int "all kills audited" 3 (List.length r.Audit.kills);
      check_int "slo over every restore" 3
        r.Audit.restore_slo.Mdr_faults.Recovery.count;
      (* the three kill kinds all appear (rotation) *)
      let kinds =
        List.sort_uniq Stdlib.compare
          (List.map (fun o -> o.Audit.where) r.Audit.kills)
      in
      check_int "all kill kinds exercised" 3 (List.length kinds);
      check "report renders" true (String.length (Audit.report r) > 0))

let test_audit_storm_accounting () =
  let topo = small_topo () in
  with_dir (fun d ->
      let s = Audit.storm ~ticks:10 ~intensity:8 ~budget:2 ~dir:d ~topo ~seed:1 () in
      check_int "all offers accounted" s.Audit.offered
        (s.Audit.applied + s.Audit.coalesced + s.Audit.shed);
      check_int "offered = ticks * intensity" 80 s.Audit.offered;
      check "lfi survives the storm" true s.Audit.storm_lfi_ok)

(* Offers without polling leave a backlog (queued updates, and armed
   hold-down timers for sub-threshold costs); drain must clear both,
   count every apply, and be a no-op on a settled server. *)
let test_drain_settles () =
  let topo = small_topo () in
  with_dir (fun d ->
      let srv = Server.create ~dir:d ~topo ~cost () in
      List.iteri (fun i u -> Server.offer srv ~now:(0.01 *. float_of_int i) u) (stream topo ~seed:5 ~updates:30);
      let now, applied = Server.drain srv ~now:1.0 in
      let h = Server.health srv ~now in
      check_int "queue empty" 0 h.Server.queue_depth;
      check_int "no timers armed" 0 h.Server.pending_timers;
      check_int "every apply counted" (Server.seq srv) applied;
      check "clock never runs backwards" true (now >= 1.0);
      check "settled, LFI clean" true (Server.settled srv && Server.lfi_ok srv);
      let now', again = Server.drain srv ~now in
      check_int "nothing left" 0 again;
      check "settled drain keeps the clock" true (Float.equal now now');
      Server.close srv)

(* ---- multi-writer: per-client sequence spaces and epoch fencing ------ *)

let set01 cost = Update.Set_cost { src = 0; dst = 1; cost }
let set34 cost = Update.Set_cost { src = 3; dst = 4; cost }

let test_fencing_stale_epoch_rejected () =
  let topo = small_topo () in
  with_dir (fun d ->
      let s = Server.create ~dir:d ~topo ~cost () in
      (* unclaimed pairs are open to any client *)
      check "open pair applies" true
        (Server.submit s ~now:1.0 ~client:1 ~seq:1 ~epoch:0 (set01 2.0)
        = Server.Applied);
      (* client 2 takes ownership of (0, 1) *)
      let e = Server.claim s ~now:2.0 ~client:2 ~scope:(Server.Pairs [ (1, 0) ]) in
      check_int "first epoch" 1 e;
      (* client 1's next write to the pair is fenced, not applied *)
      (match Server.submit s ~now:3.0 ~client:1 ~seq:2 ~epoch:0 (set01 3.0) with
      | Server.Fenced { owner = 2; current = 1 } -> ()
      | _ -> Alcotest.fail "stale write not fenced");
      check_int "fenced write consumed no seq" 2 (Server.seq s);
      check_int "client 1 mark unchanged" 1 (Server.client_seq s ~client:1);
      (* the owner writes under its epoch *)
      check "owner applies" true
        (Server.submit s ~now:4.0 ~client:2 ~seq:1 ~epoch:e (set01 4.0)
        = Server.Applied);
      (* a pair nobody claimed stays open *)
      check "other pair still open" true
        (Server.submit s ~now:5.0 ~client:1 ~seq:2 ~epoch:0 (set34 1.5)
        = Server.Applied);
      Server.close s)

let test_fencing_new_epoch_wins () =
  let topo = small_topo () in
  with_dir (fun d ->
      let s = Server.create ~dir:d ~topo ~cost () in
      let e1 = Server.claim s ~now:1.0 ~client:1 ~scope:Server.All in
      check "old owner writes" true
        (Server.submit s ~now:2.0 ~client:1 ~seq:1 ~epoch:e1 (set01 2.0)
        = Server.Applied);
      (* client 2 takes over the whole topology under a newer epoch *)
      let e2 = Server.claim s ~now:3.0 ~client:2 ~scope:Server.All in
      check "takeover epoch is newer" true (e2 > e1);
      (match Server.submit s ~now:4.0 ~client:1 ~seq:2 ~epoch:e1 (set01 3.0) with
      | Server.Fenced { owner = 2; current } -> check_int "fence names e2" e2 current
      | _ -> Alcotest.fail "zombie writer not fenced");
      check "new owner writes" true
        (Server.submit s ~now:5.0 ~client:2 ~seq:1 ~epoch:e2 (set01 5.0)
        = Server.Applied);
      (* re-claiming what it already owns is idempotent: same epoch,
         no journal entry — a duplicated Claim frame must not fence
         its own sender's in-flight submits *)
      let before = Server.seq s in
      check_int "re-claim returns standing grant" e2
        (Server.claim s ~now:6.0 ~client:2 ~scope:Server.All);
      check_int "re-claim journaled nothing" before (Server.seq s);
      Server.close s)

(* Every way the state directory can be unreadable surfaces as the
   one typed error, never as a bare Failure. *)
let test_restore_unreadable () =
  let topo = small_topo () in
  let unreadable what setup =
    with_dir (fun d ->
        setup d;
        match Server.restore ~dir:d ~topo ~cost () with
        | s ->
            Server.close s;
            Alcotest.failf "%s: restore succeeded" what
        | exception Server.Unreadable _ -> ())
  in
  let journal d = Filename.concat d "journal.bin" in
  let entry u =
    Update.encode_entry (Update.Apply { client = 0; seq = 1; epoch = 0; update = u })
  in
  let u = Update.Set_cost { src = 0; dst = 1; cost = 2.0 } in
  unreadable "v1 journal header" (fun d ->
      write_file (journal d) (Codec.header ~magic:"MDRJ" ~version:1));
  unreadable "journal gap" (fun d ->
      let j = Journal.create ~path:(journal d) () in
      Journal.append j ~seq:2 ~payload:(entry u);
      Journal.close j);
  unreadable "corrupt journal payload" (fun d ->
      let j = Journal.create ~path:(journal d) () in
      Journal.append j ~seq:1 ~payload:(Update.encode u);
      Journal.close j);
  unreadable "snapshot for another topology" (fun d ->
      match Snapshot.write ~path:(Filename.concat d "snapshot.bin") "junk" with
      | `Ok -> ()
      | `Torn -> Alcotest.fail "unexpected torn")

let test_fencing_epoch_persists_across_restart () =
  let topo = small_topo () in
  with_dir (fun d ->
      let s = Server.create ~dir:d ~topo ~cost () in
      let e1 = Server.claim s ~now:1.0 ~client:1 ~scope:(Server.Pairs [ (0, 1) ]) in
      check "owner writes" true
        (Server.submit s ~now:2.0 ~client:1 ~seq:1 ~epoch:e1 (set01 2.0)
        = Server.Applied);
      let claims = Server.claims s in
      let epoch = Server.epoch s in
      Server.close s;
      let s' = Server.restore ~dir:d ~topo ~cost () in
      check "claim table restored" true (Server.claims s' = claims);
      check_int "epoch counter restored" epoch (Server.epoch s');
      check_int "client epoch restored" e1 (Server.client_epoch s' ~client:1);
      (* the fence survives the restart *)
      (match Server.submit s' ~now:3.0 ~client:2 ~seq:1 ~epoch:0 (set01 9.0) with
      | Server.Fenced { owner = 1; current } -> check_int "old epoch fences" e1 current
      | _ -> Alcotest.fail "fence lost across restart");
      (* and a post-restart claim is strictly newer than anything granted *)
      let e2 = Server.claim s' ~now:4.0 ~client:2 ~scope:(Server.Pairs [ (0, 1) ]) in
      check "monotone across restart" true (e2 > e1);
      Server.close s')

let test_per_client_marks_restored () =
  let topo = small_topo () in
  with_dir (fun d ->
      let s = Server.create ~dir:d ~topo ~cost () in
      (* three writers interleaved, distinct per-client seq spaces *)
      check "c1/1" true
        (Server.submit s ~now:1.0 ~client:1 ~seq:1 ~epoch:0 (set01 2.0)
        = Server.Applied);
      check "c2/1" true
        (Server.submit s ~now:2.0 ~client:2 ~seq:1 ~epoch:0 (set34 1.0)
        = Server.Applied);
      check "c1/2" true
        (Server.submit s ~now:3.0 ~client:1 ~seq:2 ~epoch:0 (set01 2.5)
        = Server.Applied);
      check "c3/1" true
        (Server.submit s ~now:4.0 ~client:3 ~seq:1 ~epoch:0 (set34 0.5)
        = Server.Applied);
      (* dedup and gap detection are per-client *)
      check "c2 duplicate" true
        (Server.submit s ~now:5.0 ~client:2 ~seq:1 ~epoch:0 (set34 1.0)
        = Server.Duplicate);
      (match Server.submit s ~now:6.0 ~client:3 ~seq:3 ~epoch:0 (set34 2.0) with
      | Server.Seq_gap { expected = 2 } -> ()
      | _ -> Alcotest.fail "per-client gap not detected");
      let marks = Server.marks s in
      check "marks table" true (marks = [ (1, 2); (2, 1); (3, 1) ]);
      let fp = Server.fingerprint s in
      Server.close s;
      let s' = Server.restore ~dir:d ~topo ~cost () in
      check "marks restored byte-identically" true (Server.marks s' = marks);
      check_str "fingerprint restored" fp (Server.fingerprint s');
      check_int "c1 resumes from 3" 2 (Server.client_seq s' ~client:1);
      (* a resumed duplicate is still a duplicate after restore *)
      check "restored dedup" true
        (Server.submit s' ~now:7.0 ~client:1 ~seq:2 ~epoch:0 (set01 2.5)
        = Server.Duplicate);
      Server.close s')

(* ---- the headline property (satellite: >= 50 seeded cases) ----------- *)

let prop_crash_recovery =
  QCheck.Test.make
    ~name:
      "server: snapshot+journal restore == uninterrupted run (random \
       streams, random kills)" ~count:50
    QCheck.(pair (int_range 0 1_000_000) (int_range 10 25))
    (fun (seed, updates) ->
      let topo = small_topo () in
      with_dir (fun d ->
          (* kills:3 makes every case exercise all three kill kinds;
             kill points and torn offsets are drawn from [seed]. *)
          Audit.ok (Audit.run ~updates ~kills:3 ~dir:d ~topo ~seed ())))

let suite =
  [
    Alcotest.test_case "codec: frame/read roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec: CRC detects bit flips" `Quick
      test_codec_detects_corruption;
    Alcotest.test_case "codec: short record is torn" `Quick
      test_codec_short_record;
    Alcotest.test_case "update: binary roundtrip" `Quick test_update_roundtrip;
    Alcotest.test_case "update: topology validation" `Quick test_update_validate;
    Alcotest.test_case "update: bare v1 update is not an entry" `Quick
      test_update_bare_entry_refused;
    Alcotest.test_case "journal: append/replay roundtrip" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal: torn tail skipped and truncated" `Quick
      test_journal_torn_tail;
    Alcotest.test_case "journal: corrupt header refused" `Quick
      test_journal_corrupt_header;
    Alcotest.test_case "snapshot: atomic replacement" `Quick
      test_snapshot_atomic_replace;
    Alcotest.test_case "snapshot: corruption detected" `Quick
      test_snapshot_detects_corruption;
    Alcotest.test_case "ingest: same-link coalescing" `Quick test_ingest_coalesce;
    Alcotest.test_case "ingest: shedding and degraded status" `Quick
      test_ingest_shed_and_degraded;
    Alcotest.test_case "ingest: damping absorbs and holds down" `Quick
      test_ingest_damping;
    Alcotest.test_case "server: deterministic settled genesis" `Quick
      test_server_genesis_deterministic;
    Alcotest.test_case "server: close/restore identity" `Quick
      test_server_close_restore_identity;
    Alcotest.test_case "server: mid-journal kill, client resumes" `Quick
      test_server_resume_from_seq;
    Alcotest.test_case "server: watchdog alarms" `Quick test_server_watchdog;
    Alcotest.test_case "server: input validation" `Quick
      test_server_rejects_bad_input;
    Alcotest.test_case "server: torn-tail corruption counted and alarmed" `Quick
      test_corruption_counters_torn_tail;
    Alcotest.test_case "server: snapshot-fallback corruption counted" `Quick
      test_corruption_counters_snapshot_fallback;
    Alcotest.test_case "server: unreadable state is a typed error" `Quick
      test_restore_unreadable;
    Alcotest.test_case "server: v2 snapshot refused, rebuilt from journal" `Quick
      test_old_snapshot_version_falls_back;
    Alcotest.test_case "fencing: stale epoch rejected" `Quick
      test_fencing_stale_epoch_rejected;
    Alcotest.test_case "fencing: new epoch wins, re-claim idempotent" `Quick
      test_fencing_new_epoch_wins;
    Alcotest.test_case "fencing: epoch persists across restart" `Quick
      test_fencing_epoch_persists_across_restart;
    Alcotest.test_case "multi-writer: per-client marks restored" `Quick
      test_per_client_marks_restored;
    Alcotest.test_case "audit: small end-to-end run" `Quick test_audit_small;
    Alcotest.test_case "audit: storm accounting" `Quick
      test_audit_storm_accounting;
    Alcotest.test_case "server: drain clears queue and timers" `Quick test_drain_settles;
    QCheck_alcotest.to_alcotest prop_crash_recovery;
  ]
