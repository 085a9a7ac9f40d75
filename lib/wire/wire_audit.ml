module Rng = Mdr_util.Rng
module Pool = Mdr_util.Pool
module Tab = Mdr_util.Tab
module Server = Mdr_server.Server
module Update = Mdr_server.Update
module Procfault = Mdr_faults.Procfault
module Wirefault = Mdr_faults.Wirefault
module Recovery = Mdr_faults.Recovery

type result = {
  seed : int;
  intensity : float;
  updates : int;
  ok : bool;
  client_done : bool;
  fingerprint_ok : bool;
  exactly_once : bool;
  lfi : bool;
  settled : bool;
  reconnects : int;
  dial_failures : int;
  retries : int;
  fast_forwarded : int;
  duplicates : int;
  malformed : int;
  reaped : int;
  chaos : Wirefault.counts;
  reconnect_latencies : float list;
  reconnect_slo : Recovery.slo;
  wall_s : float;
}

let default_audit_config = { Server.default_config with snapshot_every = 16 }

(* Rng.substream index namespace within one run: 0 = update stream,
   1 = client backoff jitter, 2 + 2c / 3 + 2c = connection c's
   client->server / server->client fault lines. *)

let dt = 0.02
let max_steps = 400_000
let heartbeat_every = 25 (* steps: one watchdog tick per 0.5 logical s *)

let run ?(config = default_audit_config) ?wire_config ?client_config ?(updates = 60)
    ?(cost = Procfault.default_base_cost) ~intensity ~dir ~topo ~seed () =
  if updates < 1 then invalid_arg "Wire_audit.run: updates must be >= 1";
  if not (Float.is_finite intensity) || intensity < 0.0 then
    invalid_arg "Wire_audit.run: intensity must be finite and >= 0";
  let stream =
    Array.of_list
      (List.map Update.of_procfault
         (Procfault.stream ~rng:(Rng.substream ~seed ~index:0) ~topo ~updates ()))
  in
  (* Reference: the same stream applied directly, no wire in the way. *)
  let ref_srv =
    Server.create ~config ~dir:(Filename.concat dir "ref") ~topo ~cost ()
  in
  Array.iteri (fun i u -> Server.apply ref_srv ~now:(float_of_int (i + 1)) u) stream;
  let fp_ref = Server.fingerprint ref_srv in
  Server.close ref_srv;
  (* Chaos: the wire session on a logical clock. *)
  let srv = Server.create ~config ~dir:(Filename.concat dir "chaos") ~topo ~cost () in
  let wsrv = Wire_server.create ?config:wire_config srv in
  let params = Wirefault.scale Wirefault.default_params ~intensity in
  let lines = ref [] in
  let conns = ref 0 in
  let dial ~now =
    let c = !conns in
    incr conns;
    (* Refuse every seventh dial outright: connection backoff must be
       exercised even on seeds whose lines rarely die. *)
    if c mod 7 = 6 then None
    else begin
      let line idx = Wirefault.create ~params ~rng:(Rng.substream ~seed ~index:idx) () in
      let to_server = line (2 + (2 * c)) in
      let to_client = line (3 + (2 * c)) in
      lines := to_server :: to_client :: !lines;
      let client_end, server_end = Transport.pipe () in
      ignore
        (Wire_server.attach wsrv ~now (Transport.with_chaos ~line:to_client server_end));
      Some (Transport.with_chaos ~line:to_server client_end)
    end
  in
  let client =
    Client.create ?config:client_config ~rng:(Rng.substream ~seed ~index:1) ~dial
      ~updates:stream ()
  in
  let now = ref 0.0 in
  let steps = ref 0 in
  while (not (Client.finished client)) && !steps < max_steps do
    incr steps;
    now := float_of_int !steps *. dt;
    Client.step client ~now:!now;
    ignore (Wire_server.step wsrv ~now:!now);
    if !steps mod heartbeat_every = 0 then ignore (Wire_server.heartbeat wsrv ~now:!now)
  done;
  let cstats = Client.stats client in
  let wstats = Wire_server.stats wsrv in
  let fp_chaos = Server.fingerprint srv in
  let client_done = match Client.phase client with Client.Done -> true | _ -> false in
  let fingerprint_ok =
    String.equal fp_chaos fp_ref
    && (match Client.fingerprint client with
       | Some fp -> String.equal fp fp_ref
       | None -> false)
  in
  let exactly_once =
    wstats.Wire_server.applied = updates && Server.seq srv = updates
  in
  let lfi = Server.lfi_ok srv in
  let settled = Server.settled srv in
  Server.close srv;
  let chaos =
    List.fold_left
      (fun acc l -> Wirefault.add_counts acc (Wirefault.counts l))
      Wirefault.zero_counts !lines
  in
  {
    seed;
    intensity;
    updates;
    ok = client_done && fingerprint_ok && exactly_once && lfi && settled;
    client_done;
    fingerprint_ok;
    exactly_once;
    lfi;
    settled;
    reconnects = cstats.Client.reconnects;
    dial_failures = cstats.Client.dial_failures;
    retries = cstats.Client.retries;
    fast_forwarded = cstats.Client.fast_forwarded;
    duplicates = wstats.Wire_server.duplicates;
    malformed = wstats.Wire_server.malformed;
    reaped = wstats.Wire_server.reaped;
    chaos;
    reconnect_latencies = cstats.Client.reconnect_latencies;
    reconnect_slo = Recovery.slo cstats.Client.reconnect_latencies;
    wall_s = !now;
  }

(* Allowlisted for [domain-race]: the wall-clock the checker traces
   through Server.create only times restore duration (health
   telemetry). Everything the audit asserts — fingerprints, apply
   counts, LFI — flows from the per-cell seed substreams, so parallel
   cells stay bit-deterministic. *)
let run_grid ?jobs ?updates ~dir ~topo ~seeds ~intensities () =
  let cells =
    Array.of_list
      (List.concat_map
         (fun seed -> List.map (fun intensity -> (seed, intensity)) intensities)
         seeds)
  in
  Array.to_list
    (Pool.map_array ?jobs
       (fun (seed, intensity) ->
         let cell_dir =
           Filename.concat dir (Printf.sprintf "seed_%d_i%g" seed intensity)
         in
         run ?updates ~intensity ~dir:cell_dir ~topo ~seed ())
       cells)

(* ---- the multi-writer audit ------------------------------------------ *)

(* Rng.substream index namespace within one multi run: 4 = server kill
   schedule, 5 = client kill schedule, 10 + k = client k's update
   stream, 40 + k = client k's backoff jitter, 1000 + 2c / 1001 + 2c =
   connection c's client->server / server->client fault lines. *)

type client_report = {
  client : int;
  client_done : bool;
  updates : int;
  acked : int;
  resumes : int;  (** times the client process was killed and restarted *)
  reconnects : int;
  dial_failures : int;
  retries : int;
  fast_forwarded : int;
  throttled : int;
  shed : int;  (** server-side token-bucket sheds for this client *)
  reconnect_latencies : float list;
  reconnect_slo : Recovery.slo;
}

type multi_result = {
  seed : int;
  intensity : float;
  clients : int;
  updates_per_client : int;
  ok : bool;
  all_done : bool;
  fingerprint_ok : bool;
  replay_ok : bool;
  exactly_once : bool;
  marks_ok : bool;
  no_stale_applies : bool;
  lfi : bool;
  settled : bool;
  server_kills : int;
  client_kills : int;
  grants : int;
  fenced : int;
  throttled : int;
  quarantines : int;
  evicted : int;
  duplicates : int;
  malformed : int;
  chaos : Wirefault.counts;
  per_client : client_report list;
  reconnect_slo : Recovery.slo;
  wall_s : float;
}

(* The sequential reference: replay the recorded accepted order through
   the fenced submit path on a fresh server. Router state is path-
   dependent (per-router LSU counters), so equivalence is against the
   order the chaos run actually accepted — itself a deterministic
   function of the seed. Every entry must replay cleanly: a submit that
   does not come back [Applied], or a claim granted a different epoch,
   means the chaos run accepted something the fence or the per-client
   sequence discipline should have refused. *)
let replay_reference ~config ~dir ~topo ~cost entries =
  let ref_srv = Server.create ~config ~dir ~topo ~cost () in
  let ok = ref true in
  List.iteri
    (fun i e ->
      let now = float_of_int (i + 1) in
      match e with
      | Update.Apply { client; seq; epoch; update } -> (
          match Server.submit ref_srv ~now ~client ~seq ~epoch update with
          | Server.Applied -> ()
          | _ -> ok := false)
      | Update.Claim { client; epoch; pairs } ->
          if Server.claim ref_srv ~now ~client ~scope:(Server.Pairs pairs) <> epoch
          then ok := false)
    entries;
  let fp = Server.fingerprint ref_srv in
  Server.close ref_srv;
  (fp, !ok)

(* What the writer tables must look like after replaying [entries]. *)
let expected_tables entries =
  let marks = Hashtbl.create 16 in
  let claims = Hashtbl.create 32 in
  let epoch = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Update.Apply { client; seq; _ } -> Hashtbl.replace marks client seq
      | Update.Claim { client; epoch = e'; pairs } ->
          List.iter (fun p -> Hashtbl.replace claims p (client, e')) pairs;
          if e' > !epoch then epoch := e')
    entries;
  ( (Mdr_util.Sorted_tbl.bindings marks : (int * int) list),
    (Mdr_util.Sorted_tbl.bindings claims : ((int * int) * (int * int)) list),
    !epoch )

let run_multi ?(config = default_audit_config) ?wire_config ?client_config
    ?(clients = 4) ?(updates = 30) ?(server_kills = 3) ?(client_kills = 2)
    ?(cost = Procfault.default_base_cost) ~intensity ~dir ~topo ~seed () =
  if clients < 2 then invalid_arg "Wire_audit.run_multi: clients must be >= 2";
  if updates < 1 then invalid_arg "Wire_audit.run_multi: updates must be >= 1";
  if server_kills < 0 || client_kills < 0 then
    invalid_arg "Wire_audit.run_multi: kill counts must be >= 0";
  if not (Float.is_finite intensity) || intensity < 0.0 then
    invalid_arg "Wire_audit.run_multi: intensity must be finite and >= 0";
  let n = clients in
  let total = n * updates in
  let buckets = Array.of_list (Procfault.partition_pairs ~clients:n topo) in
  let streams =
    Array.init n (fun i ->
        Array.of_list
          (List.map Update.of_procfault
             (Procfault.stream_on
                ~rng:(Rng.substream ~seed ~index:(10 + i + 1))
                ~topo ~pairs:buckets.(i) ~updates ())))
  in
  let wcfg =
    let base = Option.value wire_config ~default:Wire_server.default_config in
    { base with Wire_server.record_applies = true }
  in
  let chaos_dir = Filename.concat dir "chaos" in
  let srv = ref (Server.create ~config ~dir:chaos_dir ~topo ~cost ()) in
  let wsrv = ref (Wire_server.create ~config:wcfg !srv) in
  let params = Wirefault.scale Wirefault.default_params ~intensity in
  let lines = ref [] in
  let conns = ref 0 in
  let transports = Array.make (n + 1) None in
  let dial_for k ~now =
    let c = !conns in
    incr conns;
    (* Refuse every ninth dial outright: connection backoff must be
       exercised even on seeds whose lines rarely die. *)
    if c mod 9 = 8 then None
    else begin
      let line idx = Wirefault.create ~params ~rng:(Rng.substream ~seed ~index:idx) () in
      let to_server = line (1000 + (2 * c)) in
      let to_client = line (1001 + (2 * c)) in
      lines := to_server :: to_client :: !lines;
      let client_end, server_end = Transport.pipe () in
      match
        Wire_server.attach !wsrv ~now (Transport.with_chaos ~line:to_client server_end)
      with
      | Some _ ->
          let tr = Transport.with_chaos ~line:to_server client_end in
          transports.(k) <- Some tr;
          Some tr
      | None -> None
    end
  in
  let mk_client k =
    Client.create ?config:client_config ~client_id:k
      ~claim:(Proto.Pairs buckets.(k - 1))
      ~rng:(Rng.substream ~seed ~index:(40 + k))
      ~dial:(fun ~now -> dial_for k ~now)
      ~updates:streams.(k - 1) ()
  in
  let cl = Array.init (n + 1) (fun k -> mk_client (max 1 k)) in
  let hist : Client.stats list array = Array.make (n + 1) [] in
  let resumes = Array.make (n + 1) 0 in
  let shed_acc = Array.make (n + 1) 0 in
  (* Accepted entries harvested from every server incarnation, in
     acceptance order (chunks newest first until flattened). *)
  let chunks = ref [] in
  let acc_applied = ref 0 in
  let w_throttled = ref 0 and w_fenced = ref 0 and w_quarantines = ref 0 in
  let w_evicted = ref 0 and w_duplicates = ref 0 and w_malformed = ref 0 in
  let w_grants = ref 0 in
  let marks_ok = ref true in
  let harvest () =
    let ws = Wire_server.stats !wsrv in
    chunks := Wire_server.applied_log !wsrv :: !chunks;
    acc_applied := !acc_applied + ws.Wire_server.applied;
    w_throttled := !w_throttled + ws.Wire_server.throttled;
    w_fenced := !w_fenced + ws.Wire_server.fenced;
    w_quarantines := !w_quarantines + ws.Wire_server.quarantines;
    w_evicted := !w_evicted + ws.Wire_server.evicted;
    w_duplicates := !w_duplicates + ws.Wire_server.duplicates;
    w_malformed := !w_malformed + ws.Wire_server.malformed;
    w_grants := !w_grants + ws.Wire_server.claims;
    for k = 1 to n do
      shed_acc.(k) <- shed_acc.(k) + Wire_server.shed_of !wsrv ~client:k
    done
  in
  let entries_so_far () = List.concat (List.rev !chunks) in
  let server_restores = ref 0 in
  let revive ~now =
    harvest ();
    ignore (Wire_server.shutdown !wsrv ~now);
    let restored = Server.restore ~config ~now ~dir:chaos_dir ~topo ~cost () in
    (* The tentpole's restore gate: every client's durable mark, the
       claim table and the epoch counter must come back byte-identical
       to what the accepted entries imply. *)
    let em, ec, ee = expected_tables (entries_so_far ()) in
    if
      Server.marks restored <> em
      || Server.claims restored <> ec
      || Server.epoch restored <> ee
    then marks_ok := false;
    srv := restored;
    wsrv := Wire_server.create ~config:wcfg restored;
    incr server_restores
  in
  let skill_sched =
    ref
      (if server_kills = 0 then []
       else
         Procfault.random_kills
           ~rng:(Rng.substream ~seed ~index:4)
           ~updates:total ~kills:server_kills)
  in
  let ckill_sched =
    ref
      (if client_kills = 0 then []
       else
         List.mapi
           (fun i (k : Procfault.kill) -> (k.Procfault.after, (i mod n) + 1))
           (Procfault.random_kills
              ~rng:(Rng.substream ~seed ~index:5)
              ~updates:total ~kills:client_kills))
  in
  let applied_total () =
    !acc_applied + (Wire_server.stats !wsrv).Wire_server.applied
  in
  let all_finished () =
    let fin = ref true in
    for k = 1 to n do
      if not (Client.finished cl.(k)) then fin := false
    done;
    !fin
  in
  let now = ref 0.0 in
  let steps = ref 0 in
  while (not (all_finished ())) && !steps < max_steps do
    incr steps;
    now := float_of_int !steps *. dt;
    if not (Server.alive !srv) then revive ~now:!now;
    for k = 1 to n do
      Client.step cl.(k) ~now:!now
    done;
    ignore (Wire_server.step !wsrv ~now:!now);
    (match !skill_sched with
    | kh :: rest when Server.alive !srv && applied_total () >= kh.Procfault.after ->
        skill_sched := rest;
        (match kh.Procfault.where with
        | Procfault.Between -> Server.close !srv
        | Procfault.Mid_snapshot -> Server.checkpoint ~torn_after:kh.Procfault.torn_at !srv
        | Procfault.Mid_journal -> Server.arm_torn !srv ~torn_at:kh.Procfault.torn_at)
    | _ -> ());
    (match !ckill_sched with
    | (after, k) :: rest when applied_total () >= after ->
        ckill_sched := rest;
        if not (Client.finished cl.(k)) then begin
          hist.(k) <- Client.stats cl.(k) :: hist.(k);
          (match transports.(k) with
          | Some tr -> tr.Transport.close ()
          | None -> ());
          transports.(k) <- None;
          cl.(k) <- mk_client k;
          resumes.(k) <- resumes.(k) + 1
        end
    | _ -> ());
    if !steps mod heartbeat_every = 0 && Server.alive !srv then
      ignore (Wire_server.heartbeat !wsrv ~now:!now)
  done;
  if not (Server.alive !srv) then revive ~now:!now;
  harvest ();
  let entries = entries_so_far () in
  for k = 1 to n do
    hist.(k) <- Client.stats cl.(k) :: hist.(k)
  done;
  let all_done =
    Array.for_all
      (fun k -> match Client.phase cl.(k) with Client.Done -> true | _ -> false)
      (Array.init n (fun i -> i + 1))
  in
  let fp_chaos = Server.fingerprint !srv in
  let lfi = Server.lfi_ok !srv in
  let settled = Server.settled !srv in
  let exactly_once =
    let counts = Array.make (n + 1) 0 in
    let seen = Hashtbl.create (2 * total) in
    let dup = ref false in
    List.iter
      (fun e ->
        match e with
        | Update.Apply { client; seq; _ } ->
            if client >= 1 && client <= n then counts.(client) <- counts.(client) + 1;
            if Hashtbl.mem seen (client, seq) then dup := true;
            Hashtbl.replace seen (client, seq) ()
        | Update.Claim _ -> ())
      entries;
    (not !dup)
    && Array.for_all (fun k -> counts.(k) = updates) (Array.init n (fun i -> i + 1))
    && Array.for_all
         (fun k -> Server.client_seq !srv ~client:k = updates)
         (Array.init n (fun i -> i + 1))
  in
  Server.close !srv;
  let fp_ref, replay_ok =
    replay_reference ~config ~dir:(Filename.concat dir "ref") ~topo ~cost entries
  in
  let fingerprint_ok = String.equal fp_chaos fp_ref in
  let no_stale_applies = replay_ok && !w_fenced = 0 in
  let chaos =
    List.fold_left
      (fun acc l -> Wirefault.add_counts acc (Wirefault.counts l))
      Wirefault.zero_counts !lines
  in
  let per_client =
    List.map
      (fun k ->
        let sts = hist.(k) in
        let sum f = List.fold_left (fun a s -> a + f s) 0 sts in
        let lats =
          List.concat_map (fun (s : Client.stats) -> s.Client.reconnect_latencies) sts
        in
        {
          client = k;
          client_done =
            (match Client.phase cl.(k) with Client.Done -> true | _ -> false);
          updates;
          acked = sum (fun s -> s.Client.acked);
          resumes = resumes.(k);
          reconnects = sum (fun s -> s.Client.reconnects);
          dial_failures = sum (fun s -> s.Client.dial_failures);
          retries = sum (fun s -> s.Client.retries);
          fast_forwarded = sum (fun s -> s.Client.fast_forwarded);
          throttled = sum (fun s -> s.Client.throttled);
          shed = shed_acc.(k);
          reconnect_latencies = lats;
          reconnect_slo = Recovery.slo lats;
        })
      (List.init n (fun i -> i + 1))
  in
  let pooled =
    List.concat_map (fun (r : client_report) -> r.reconnect_latencies) per_client
  in
  {
    seed;
    intensity;
    clients = n;
    updates_per_client = updates;
    ok =
      all_done && fingerprint_ok && replay_ok && exactly_once && !marks_ok
      && no_stale_applies && lfi && settled;
    all_done;
    fingerprint_ok;
    replay_ok;
    exactly_once;
    marks_ok = !marks_ok;
    no_stale_applies;
    lfi;
    settled;
    server_kills;
    client_kills;
    grants = !w_grants;
    fenced = !w_fenced;
    throttled = !w_throttled;
    quarantines = !w_quarantines;
    evicted = !w_evicted;
    duplicates = !w_duplicates;
    malformed = !w_malformed;
    chaos;
    per_client;
    reconnect_slo = Recovery.slo pooled;
    wall_s = !now;
  }

(* Allowlisted for [domain-race] for the same reason as [run_grid]:
   only restore-duration telemetry touches the wall clock; every
   asserted quantity flows from per-cell seed substreams. *)
let run_multi_grid ?jobs ?updates ?server_kills ?client_kills ?(intensity = 1.0)
    ~dir ~topo ~seeds ~client_counts () =
  let cells =
    Array.of_list
      (List.concat_map
         (fun seed -> List.map (fun c -> (seed, c)) client_counts)
         seeds)
  in
  Array.to_list
    (Pool.map_array ?jobs
       (fun (seed, clients) ->
         let cell_dir =
           Filename.concat dir (Printf.sprintf "seed_%d_c%d" seed clients)
         in
         run_multi ?updates ?server_kills ?client_kills ~clients ~intensity
           ~dir:cell_dir ~topo ~seed ())
       cells)

let multi_slo_by_clients results =
  let counts =
    List.sort_uniq Stdlib.compare (List.map (fun r -> r.clients) results)
  in
  List.map
    (fun c ->
      let samples =
        List.concat_map
          (fun r ->
            if r.clients = c then
              List.concat_map
                (fun (p : client_report) -> p.reconnect_latencies)
                r.per_client
            else [])
          results
      in
      (c, Recovery.slo samples))
    counts

let report_multi results =
  Tab.render
    ~header:
      [
        "seed"; "clients"; "ok"; "done"; "fp"; "replay"; "once"; "marks"; "grants";
        "fenced"; "shed"; "dups"; "evicted"; "quar"; "reconnect p95 s"; "wall s";
      ]
    (List.map
       (fun r ->
         [
           string_of_int r.seed;
           string_of_int r.clients;
           (if r.ok then "yes" else "NO");
           (if r.all_done then "yes" else "NO");
           (if r.fingerprint_ok then "yes" else "NO");
           (if r.replay_ok then "yes" else "NO");
           (if r.exactly_once then "yes" else "NO");
           (if r.marks_ok then "yes" else "NO");
           string_of_int r.grants;
           string_of_int r.fenced;
           string_of_int r.throttled;
           string_of_int r.duplicates;
           string_of_int r.evicted;
           string_of_int r.quarantines;
           Printf.sprintf "%.3f" r.reconnect_slo.Recovery.p95;
           Printf.sprintf "%.1f" r.wall_s;
         ])
       results)

let slo_by_intensity (results : result list) =
  let intensities =
    List.sort_uniq Float.compare (List.map (fun (r : result) -> r.intensity) results)
  in
  List.map
    (fun i ->
      let samples =
        List.concat_map
          (fun (r : result) ->
            if Float.equal r.intensity i then r.reconnect_latencies else [])
          results
      in
      (i, Recovery.slo samples))
    intensities

let report (results : result list) =
  Tab.render
    ~header:
      [
        "seed"; "intensity"; "ok"; "reconnects"; "dial fails"; "retries"; "dups";
        "malformed"; "reaped"; "flips"; "trunc"; "disc"; "reconnect p95 s"; "wall s";
      ]
    (List.map
       (fun (r : result) ->
         [
           string_of_int r.seed;
           Printf.sprintf "%g" r.intensity;
           (if r.ok then "yes" else "NO");
           string_of_int r.reconnects;
           string_of_int r.dial_failures;
           string_of_int r.retries;
           string_of_int r.duplicates;
           string_of_int r.malformed;
           string_of_int r.reaped;
           string_of_int r.chaos.Wirefault.flips;
           string_of_int r.chaos.Wirefault.truncations;
           string_of_int r.chaos.Wirefault.disconnects;
           Printf.sprintf "%.3f" r.reconnect_slo.Recovery.p95;
           Printf.sprintf "%.1f" r.wall_s;
         ])
       results)
