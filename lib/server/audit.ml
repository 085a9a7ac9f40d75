module Graph = Mdr_topology.Graph
module Rng = Mdr_util.Rng
module Tab = Mdr_util.Tab
module Procfault = Mdr_faults.Procfault
module Recovery = Mdr_faults.Recovery

type outcome = {
  after : int;
  where : Procfault.where;
  seq_at_restore : int;
  fingerprint_ok : bool;
  lfi_ok : bool;
  from_snapshot : bool;
  torn_skipped : bool;
  replayed : int;
  restore_s : float;
}

type result = {
  updates : int;
  kills : outcome list;
  final_fingerprint_ok : bool;
  final_lfi_ok : bool;
  apply_per_s : float;
  query_per_s : float;
  restore_slo : Recovery.slo;
}

let default_audit_config =
  { Server.default_config with snapshot_every = 8 }

(* Query throughput over every ordered pair, a few sweeps. *)
let measure_queries srv ~n =
  let sweeps = 5 in
  let count = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to sweeps do
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then begin
          ignore (Server.route srv ~src ~dst);
          ignore (Server.split srv ~src ~dst);
          count := !count + 2
        end
      done
    done
  done;
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int !count /. Float.max dt 1e-9

let run ?(config = default_audit_config) ?(updates = 60) ?(kills = 6) ?cost
    ~dir ~topo ~seed () =
  let cost =
    match cost with Some c -> c | None -> Procfault.default_base_cost
  in
  let stream =
    Procfault.stream ~rng:(Rng.substream ~seed ~index:0) ~topo ~updates ()
  in
  let kill_list =
    Procfault.random_kills ~rng:(Rng.substream ~seed ~index:1) ~updates ~kills
  in
  let updates_arr = Array.of_list (List.map Update.of_procfault stream) in
  (* Sequence numbers whose reference fingerprint a kill will need:
     the update itself for Between / Mid_snapshot (it was durable), the
     one before for Mid_journal (the torn update was never accepted). *)
  let needed = Hashtbl.create 16 in
  List.iter
    (fun (k : Procfault.kill) ->
      let s =
        match k.Procfault.where with
        | Procfault.Between | Procfault.Mid_snapshot -> k.Procfault.after
        | Procfault.Mid_journal -> k.Procfault.after - 1
      in
      Hashtbl.replace needed s ())
    kill_list;
  (* ---- reference run: uninterrupted ---- *)
  let fps = Hashtbl.create 16 in
  let dir_ref = Filename.concat dir "ref" in
  let ref_srv = Server.create ~config ~dir:dir_ref ~topo ~cost () in
  if Hashtbl.mem needed 0 then Hashtbl.replace fps 0 (Server.fingerprint ref_srv);
  let t_apply = ref 0.0 in
  Array.iteri
    (fun i u ->
      let seq = i + 1 in
      let t0 = Unix.gettimeofday () in
      Server.apply ref_srv ~now:(float_of_int seq) u;
      t_apply := !t_apply +. (Unix.gettimeofday () -. t0);
      if Hashtbl.mem needed seq then
        Hashtbl.replace fps seq (Server.fingerprint ref_srv))
    updates_arr;
  let final_fp = Server.fingerprint ref_srv in
  let apply_per_s = float_of_int updates /. Float.max !t_apply 1e-9 in
  let query_per_s = measure_queries ref_srv ~n:(Graph.node_count topo) in
  Server.close ref_srv;
  (* ---- chaos run: same stream, killed and restored ---- *)
  let dir_chaos = Filename.concat dir "chaos" in
  let srv = ref (Server.create ~config ~dir:dir_chaos ~topo ~cost ()) in
  let outcomes = ref [] in
  let restore_and_check (k : Procfault.kill) ~now ~expect_seq =
    assert (not (Server.alive !srv));
    srv := Server.restore ~config ~now ~dir:dir_chaos ~topo ~cost ();
    let h = Server.health !srv ~now in
    let info =
      match h.Server.last_restore with
      | Some i -> i
      | None -> (* restore always records itself *) assert false
    in
    let fingerprint_ok =
      Server.seq !srv = expect_seq
      && String.equal (Server.fingerprint !srv) (Hashtbl.find fps expect_seq)
    in
    outcomes :=
      {
        after = k.Procfault.after;
        where = k.Procfault.where;
        seq_at_restore = Server.seq !srv;
        fingerprint_ok;
        lfi_ok = Server.lfi_ok !srv;
        from_snapshot = info.Server.from_snapshot;
        torn_skipped = info.Server.torn_skipped;
        replayed = info.Server.replayed;
        restore_s = info.Server.duration;
      }
      :: !outcomes
  in
  let pending = ref kill_list in
  Array.iteri
    (fun i u ->
      let seq = i + 1 in
      let now = float_of_int seq in
      match !pending with
      | k :: rest when k.Procfault.after = seq -> (
          pending := rest;
          match k.Procfault.where with
          | Procfault.Between ->
              Server.apply !srv ~now u;
              Server.close !srv;
              restore_and_check k ~now ~expect_seq:seq
          | Procfault.Mid_snapshot ->
              Server.apply !srv ~now u;
              Server.checkpoint ~torn_after:k.Procfault.torn_at !srv;
              restore_and_check k ~now ~expect_seq:seq
          | Procfault.Mid_journal ->
              Server.apply ~torn_after:k.Procfault.torn_at !srv ~now u;
              restore_and_check k ~now ~expect_seq:(seq - 1);
              (* the torn update was never accepted; the client,
                 resuming from [seq], sends it again *)
              Server.apply !srv ~now u)
      | _ -> Server.apply !srv ~now u)
    updates_arr;
  let final_fingerprint_ok = String.equal (Server.fingerprint !srv) final_fp in
  let final_lfi_ok = Server.lfi_ok !srv in
  Server.close !srv;
  let kills = List.rev !outcomes in
  {
    updates;
    kills;
    final_fingerprint_ok;
    final_lfi_ok;
    apply_per_s;
    query_per_s;
    restore_slo = Recovery.slo (List.map (fun o -> o.restore_s) kills);
  }

let ok r =
  r.final_fingerprint_ok && r.final_lfi_ok
  && List.for_all (fun o -> o.fingerprint_ok && o.lfi_ok) r.kills

let report r =
  let where = function
    | Procfault.Between -> "between"
    | Procfault.Mid_journal -> "mid-journal"
    | Procfault.Mid_snapshot -> "mid-snapshot"
  in
  let yn b = if b then "yes" else "NO" in
  let rows =
    List.map
      (fun o ->
        [
          string_of_int o.after;
          where o.where;
          string_of_int o.seq_at_restore;
          (if o.from_snapshot then "snapshot" else "genesis");
          string_of_int o.replayed;
          yn o.torn_skipped;
          Printf.sprintf "%.1f" (o.restore_s *. 1e3);
          yn o.fingerprint_ok;
          yn o.lfi_ok;
        ])
      r.kills
  in
  let table =
    Tab.render
      ~header:
        [
          "kill@"; "where"; "seq"; "base"; "replayed"; "torn"; "restore ms";
          "fp=="; "lfi";
        ]
      rows
  in
  let slo = r.restore_slo in
  Printf.sprintf
    "%s\nfinal: fingerprint %s, lfi %s | apply %.0f/s, query %.0f/s | restore \
     p50 %.1f ms p95 %.1f ms max %.1f ms (n=%d)\n"
    table
    (yn r.final_fingerprint_ok)
    (yn r.final_lfi_ok)
    r.apply_per_s r.query_per_s (slo.Recovery.p50 *. 1e3)
    (slo.Recovery.p95 *. 1e3)
    (slo.Recovery.max_ *. 1e3)
    slo.Recovery.count

(* ---- storm bench ----------------------------------------------------- *)

type storm_report = {
  ticks : int;
  intensity : int;
  budget : int;
  offered : int;
  applied : int;
  coalesced : int;
  shed : int;
  degraded_ticks : int;
  shed_rate : float;
  storm_lfi_ok : bool;
}

(* The storm default queue sits well below a typical topology's
   directed-link count: coalescing alone bounds queue depth by the
   number of distinct links, so a capacity above that would make
   shedding unreachable and the bench vacuous. *)
let default_storm_config =
  { default_audit_config with Server.queue_capacity = 16 }

let storm ?(config = default_storm_config) ?(ticks = 50) ~intensity ~budget
    ~dir ~topo ~seed () =
  if intensity < 1 then invalid_arg "Audit.storm: intensity must be >= 1";
  if budget < 1 then invalid_arg "Audit.storm: budget must be >= 1";
  let cost = Procfault.default_base_cost in
  let stream =
    Procfault.cost_storm
      ~rng:(Rng.substream ~seed ~index:2)
      ~topo ~updates:(ticks * intensity) ()
  in
  let updates_arr = Array.of_list (List.map Update.of_procfault stream) in
  let srv = Server.create ~config ~dir ~topo ~cost () in
  let applied = ref 0 in
  let degraded = ref 0 in
  for tick = 0 to ticks - 1 do
    let now = float_of_int tick in
    for j = 0 to intensity - 1 do
      Server.offer srv ~now updates_arr.((tick * intensity) + j)
    done;
    applied := !applied + Server.poll ~max:budget srv ~now;
    match (Server.health srv ~now).Server.status with
    | Server.Degraded -> incr degraded
    | Server.Ok -> ()
  done;
  (* drain: keep polling past the storm until the queue and every
     hold-down timer are gone *)
  let now = ref (float_of_int ticks) in
  let guard = ref 0 in
  let continue = ref true in
  while !continue do
    incr guard;
    if !guard > 10_000 then failwith "Audit.storm: backlog failed to drain";
    applied := !applied + Server.poll srv ~now:!now;
    let h = Server.health srv ~now:!now in
    if h.Server.queue_depth = 0 && h.Server.pending_timers = 0 then
      continue := false
    else now := !now +. 1.0
  done;
  let stats = (Server.health srv ~now:!now).Server.ingest in
  let storm_lfi_ok = Server.lfi_ok srv && Server.settled srv in
  Server.close srv;
  {
    ticks;
    intensity;
    budget;
    offered = stats.Ingest.offered;
    applied = !applied;
    coalesced = stats.Ingest.coalesced;
    shed = stats.Ingest.shed;
    degraded_ticks = !degraded;
    shed_rate =
      float_of_int stats.Ingest.shed
      /. Float.max (float_of_int stats.Ingest.offered) 1.0;
    storm_lfi_ok;
  }

(* ---- snapshot-interval sweep ----------------------------------------- *)

type sweep_point = {
  snapshot_every : int;
  restore_mean_s : float;
  restore_max_s : float;
  journal_records : int;
}

let sweep_snapshot_interval ?(intervals = [ 1; 4; 16; 64; 0 ]) ?(updates = 200)
    ?cost ~dir ~topo ~seed () =
  let cost =
    match cost with Some c -> c | None -> Procfault.default_base_cost
  in
  let stream =
    Procfault.stream ~rng:(Rng.substream ~seed ~index:3) ~topo ~updates ()
  in
  let updates_arr = Array.of_list (List.map Update.of_procfault stream) in
  List.map
    (fun snapshot_every ->
      let config = { default_audit_config with snapshot_every } in
      let d =
        Filename.concat dir (Printf.sprintf "sweep_%d" snapshot_every)
      in
      let srv = Server.create ~config ~dir:d ~topo ~cost () in
      Array.iteri
        (fun i u -> Server.apply srv ~now:(float_of_int (i + 1)) u)
        updates_arr;
      let journal_records =
        (Server.health srv ~now:(float_of_int updates)).Server.journal_records
      in
      Server.close srv;
      let times = ref [] in
      for _ = 1 to 3 do
        let s = Server.restore ~config ~dir:d ~topo ~cost () in
        let h = Server.health s ~now:(float_of_int updates) in
        (match h.Server.last_restore with
        | Some info -> times := info.Server.duration :: !times
        | None -> assert false);
        Server.close s
      done;
      let times = !times in
      let total = List.fold_left ( +. ) 0.0 times in
      {
        snapshot_every;
        restore_mean_s = total /. float_of_int (List.length times);
        restore_max_s = List.fold_left Float.max 0.0 times;
        journal_records;
      })
    intervals
