module Bin = Mdr_util.Bin
module Graph = Mdr_topology.Graph
module Router = Mdr_routing.Router
module Syncnet = Mdr_routing.Syncnet
module Lfi = Mdr_routing.Lfi
module Cost_trigger = Mdr_routing.Cost_trigger

type config = {
  snapshot_every : int;
  fsync : bool;
  queue_capacity : int;
  damping : Cost_trigger.params option;
  degraded_hold : float;
  max_staleness : float;
  max_replay : int;
}

let default_config =
  {
    snapshot_every = 64;
    fsync = false;
    queue_capacity = 256;
    damping = None;
    degraded_hold = 5.0;
    max_staleness = 30.0;
    max_replay = 256;
  }

let validate_config c =
  if c.snapshot_every < 0 then invalid_arg "Server: snapshot_every must be >= 0";
  if c.queue_capacity < 1 then invalid_arg "Server: queue_capacity must be >= 1";
  if not (Float.is_finite c.degraded_hold) || c.degraded_hold < 0.0 then
    invalid_arg "Server: bad degraded_hold";
  if not (Float.is_finite c.max_staleness) || c.max_staleness <= 0.0 then
    invalid_arg "Server: bad max_staleness";
  if c.max_replay < 1 then invalid_arg "Server: max_replay must be >= 1";
  Option.iter Cost_trigger.validate c.damping

type status = Ok | Degraded

type restore_info = {
  replayed : int;
  torn_skipped : bool;
  from_snapshot : bool;
  duration : float;
}

type corruption = { torn_tails : int; snapshot_fallbacks : int }

let zero_corruption = { torn_tails = 0; snapshot_fallbacks = 0 }
let corruption_events c = c.torn_tails + c.snapshot_fallbacks

type health = {
  seq : int;
  snap_seq : int;
  journal_records : int;
  queue_depth : int;
  pending_timers : int;
  status : status;
  staleness : float;
  heartbeats : int;
  ingest : Ingest.stats;
  last_restore : restore_info option;
  corruption : corruption;
  spf_full_runs : int;
  spf_repairs : int;
  spf_fallbacks : int;
}

type alarm =
  | Stale of { age : float; budget : float }
  | Replay_lag of { records : int; budget : int }
  | Shedding of { shed : int }
  | Survived_corruption of corruption

type claim_scope = All | Pairs of (int * int) list

type submit_result =
  | Applied
  | Duplicate
  | Seq_gap of { expected : int }
  | Fenced of { owner : int; current : int }
  | Died

type t = {
  topo : Graph.t;
  dir : string;
  config : config;
  net : Syncnet.t;  (* the routers; each holds its links' up state and cost *)
  mutable seq : int;
  mutable journal : Journal.t;
  mutable snap_seq : int;
  ingest : Ingest.t;
  mutable last_applied : float;
  mutable heartbeats : int;
  mutable shed_seen : int;  (* sheds already reported by a heartbeat *)
  mutable alive : bool;
  mutable last_restore : restore_info option;
  mutable corruption : corruption;
  mutable corruption_seen : int;  (* events already reported by a heartbeat *)
  marks : (int, int) Hashtbl.t;  (* client -> durable per-client seq *)
  grants : (int, int) Hashtbl.t;  (* client -> last granted epoch *)
  claim_tbl : (int * int, int * int) Hashtbl.t;  (* duplex pair -> owner, epoch *)
  mutable epoch : int;  (* last granted epoch, monotone across restarts *)
  mutable torn_next : int option;  (* one-shot: tear the next journal append *)
}

let journal_path dir = Filename.concat dir "journal.bin"
let snapshot_path dir = Filename.concat dir "snapshot.bin"

let rec ensure_dir dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      invalid_arg (Printf.sprintf "Server: %s exists and is not a directory" dir)
  end
  else begin
    let parent = Filename.dirname dir in
    if String.length parent < String.length dir then ensure_dir parent;
    (* tolerate a concurrent mkdir of the same path *)
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let seq t = t.seq
let alive t = t.alive
let topology t = t.topo
let epoch t = t.epoch

let client_seq t ~client =
  match Hashtbl.find_opt t.marks client with Some s -> s | None -> 0

let client_epoch t ~client =
  match Hashtbl.find_opt t.grants client with Some e -> e | None -> 0

let marks t = (Mdr_util.Sorted_tbl.bindings t.marks : (int * int) list)

let claims t =
  (Mdr_util.Sorted_tbl.bindings t.claim_tbl : ((int * int) * (int * int)) list)

let arm_torn t ~torn_at =
  if torn_at < 1 then invalid_arg "Server.arm_torn: torn_at must be >= 1";
  t.torn_next <- Some torn_at

(* ---- the synchronous control plane --------------------------------- *)

(* Deliver the queued control messages FIFO with zero delay until the
   plane is quiescent. This is one valid schedule of the paper's oracle
   model, and because it is a deterministic function of the queued
   reactions, the whole server state is a pure function of the accepted
   update sequence — which is what lets snapshot + replay reproduce it
   bit-for-bit. *)
let settle net =
  if not (Syncnet.run ~max_messages:(Syncnet.messages_delivered net + 10_000_000) net) then
    failwith "Server: control plane failed to quiesce"

(* ---- applying updates ------------------------------------------------ *)

(* Validated updates touch duplex pairs only, and both directions of a
   pair are always up or down together. A router ignores cost news and
   link-down news for a link it holds down. *)
let apply_mem t (u : Update.t) =
  let net = t.net in
  (match u with
  | Update.Set_cost { src; dst; cost } -> Syncnet.change_link_cost net ~src ~dst ~cost
  | Update.Link_down { a; b } ->
      Syncnet.link_down net ~src:a ~dst:b;
      Syncnet.link_down net ~src:b ~dst:a
  | Update.Link_up { a; b; cost } ->
      (* already up: take it as fresh cost news for both directions *)
      let bring =
        if Float.is_finite (Router.link_cost (Syncnet.router net a) ~nbr:b) then
          Syncnet.change_link_cost
        else Syncnet.link_up
      in
      bring net ~src:a ~dst:b ~cost;
      bring net ~src:b ~dst:a ~cost);
  settle net

(* ---- snapshot payload ------------------------------------------------ *)

(* A snapshot is only meaningful against the topology it was taken for;
   the digest is over the canonical node-and-link listing. *)
let topo_digest topo =
  let buf = Buffer.create 256 in
  List.iter
    (fun node -> Buffer.add_string buf (Graph.name topo node ^ ";"))
    (Graph.nodes topo);
  List.iter
    (fun (l : Graph.link) ->
      Buffer.add_string buf
        (Printf.sprintf "%d>%d:%h:%h;" l.src l.dst l.capacity l.prop_delay))
    (Graph.links topo);
  Digest.string (Buffer.contents buf)

(* Every live directed link and its cost, as the routers hold them,
   ascending by source and then destination. *)
let live_links net =
  List.concat_map
    (fun src ->
      let r = Syncnet.router net src in
      List.map (fun dst -> ((src, dst), Router.link_cost r ~nbr:dst)) (Router.up_neighbors r))
    (List.init (Syncnet.node_count net) Fun.id)

let snapshot_payload t =
  Bin.encode 4096 (fun b ->
      let u32 = Bin.add_u32 b in
      let list add l = Bin.add_list b (fun _ x -> add x) l in
      Buffer.add_string b (topo_digest t.topo);
      Bin.add_u64 b t.seq;
      list
        (fun r ->
          let blob = Router.snapshot r in
          u32 (String.length blob);
          Buffer.add_string b blob)
        (List.init (Syncnet.node_count t.net) (Syncnet.router t.net));
      list (fun ((src, dst), cost) -> u32 src; u32 dst; Bin.add_f64 b cost) (live_links t.net);
      (* v2: the writer tables, sorted so the payload is canonical. *)
      list (fun (client, s) -> u32 client; Bin.add_u64 b s) (marks t);
      list (fun (client, e) -> u32 client; u32 e) (Mdr_util.Sorted_tbl.bindings t.grants);
      list (fun ((x, y), (owner, e)) -> u32 x; u32 y; u32 owner; u32 e) (claims t);
      u32 t.epoch)

exception Unreadable of string

let decode_snapshot ~topo payload =
  let n = Graph.node_count topo in
  let read r =
    let u32 () = Bin.get_u32 r in
    let pair () = let x = u32 () in (x, u32 ()) in
    let table read = Hashtbl.of_seq (List.to_seq (Bin.get_list r (fun _ -> read ()))) in
    if not (String.equal (Bin.get_bytes r 16) (topo_digest topo)) then
      raise (Unreadable "snapshot was taken for a different topology (digest mismatch)");
    let snap_seq = Bin.get_u64 r in
    if u32 () <> n then raise (Unreadable "snapshot router count does not match topology");
    let routers =
      Array.init n (fun i ->
          match Router.restore ~n (Bin.get_bytes r (u32 ())) with
          | r when Router.id r = i -> r
          | r ->
            raise (Unreadable (Printf.sprintf "router %d: bytes of router %d" i (Router.id r)))
          | exception Router.Corrupt reason ->
            raise (Unreadable (Printf.sprintf "router %d: %s" i reason)))
    in
    let net = Syncnet.of_routers routers in
    if Bin.get_list r (fun _ -> let link = pair () in (link, Bin.get_f64 r)) <> live_links net
    then raise (Unreadable "snapshot link list disagrees with its routers");
    let marks = table (fun () -> let client = u32 () in (client, Bin.get_u64 r)) in
    let grants = table pair in
    let claim_tbl = table (fun () -> let link = pair () in (link, pair ())) in
    (snap_seq, net, marks, grants, claim_tbl, u32 ())
  in
  try Bin.decode payload read
  with Bin.Malformed reason -> raise (Unreadable ("snapshot payload: " ^ reason))

(* ---- construction ---------------------------------------------------- *)

(* Deterministic bring-up of the whole network from nothing: every link
   comes up in the topology's insertion order, each followed by a pump to
   quiescence. Never journaled — it is recomputed, identically, by any
   restore that lacks a snapshot. *)
let genesis ~topo ~cost =
  let n = Graph.node_count topo in
  let net = Syncnet.of_routers (Array.init n (fun id -> Router.create ~mode:Router.Mpda ~id ~n ())) in
  (* Links must come up duplex-atomically: a router's link-up LSU
     demands an ACK, and the peer drops messages from neighbors it
     still considers down — bringing the directions up one pump apart
     would strand the first sender in ACTIVE forever. *)
  List.iter
    (fun (l : Graph.link) ->
      match Graph.link topo ~src:l.dst ~dst:l.src with
      | Some rev ->
          if l.src < l.dst then begin
            Syncnet.link_up net ~src:l.src ~dst:l.dst ~cost:(cost l);
            Syncnet.link_up net ~src:l.dst ~dst:l.src ~cost:(cost rev);
            settle net
          end
          (* the reverse direction was handled with its partner *)
      | None ->
          Syncnet.link_up net ~src:l.src ~dst:l.dst ~cost:(cost l);
          settle net)
    (Graph.links topo);
  net

let make ?(marks = Hashtbl.create 16) ?(grants = Hashtbl.create 16)
    ?(claim_tbl = Hashtbl.create 32) ?(epoch = 0) ~config ~dir ~topo ~net ~journal ~seq
    ~snap_seq ~now ~last_restore () =
  let ingest =
    Ingest.create ?damping:config.damping ~degraded_hold:config.degraded_hold
      ~capacity:config.queue_capacity
      ~initial_cost:(fun ~src ~dst -> Router.link_cost (Syncnet.router net src) ~nbr:dst)
      ()
  in
  {
    topo;
    dir;
    config;
    net;
    seq;
    journal;
    snap_seq;
    ingest;
    last_applied = now;
    heartbeats = 0;
    shed_seen = 0;
    alive = true;
    last_restore;
    corruption = zero_corruption;
    corruption_seen = 0;
    marks;
    grants;
    claim_tbl;
    epoch;
    torn_next = None;
  }

let create ?(config = default_config) ~dir ~topo ~cost () =
  validate_config config;
  ensure_dir dir;
  Snapshot.remove_stale_tmp ~path:(snapshot_path dir);
  if Sys.file_exists (snapshot_path dir) then Sys.remove (snapshot_path dir);
  let net = genesis ~topo ~cost in
  let journal = Journal.create ~fsync:config.fsync ~path:(journal_path dir) () in
  make ~config ~dir ~topo ~net ~journal ~seq:0 ~snap_seq:0
    ~now:(Unix.gettimeofday ()) ~last_restore:None ()

(* ---- checkpoint ------------------------------------------------------ *)

let checkpoint ?torn_after t =
  if not t.alive then invalid_arg "Server.checkpoint: server is not alive";
  let payload = snapshot_payload t in
  match Snapshot.write ?torn_after ~path:(snapshot_path t.dir) payload with
  | `Torn ->
      (* The simulated process died mid-snapshot: the old snapshot and
         the journal are untouched on disk; this process is gone. *)
      t.alive <- false;
      Journal.close t.journal
  | `Ok ->
      t.snap_seq <- t.seq;
      (* The snapshot now covers every journaled record; reset the
         journal. A crash in between is safe: records whose seq the
         snapshot already covers are skipped at replay. *)
      Journal.close t.journal;
      t.journal <- Journal.create ~fsync:t.config.fsync ~base:t.seq ~path:(journal_path t.dir) ()

(* Replaying an entry against memory: the routing side effect plus the
   writer-table side effect. Used identically on the accept path and at
   restore, which is what makes the marks rebuild byte-identical. *)
let apply_entry_mem t (e : Update.entry) =
  match e with
  | Update.Apply { client; seq; epoch = _; update } ->
      apply_mem t update;
      Hashtbl.replace t.marks client seq
  | Update.Claim { client; epoch; pairs } ->
      List.iter (fun p -> Hashtbl.replace t.claim_tbl p (client, epoch)) pairs;
      Hashtbl.replace t.grants client epoch;
      if epoch > t.epoch then t.epoch <- epoch

(* Durably accept one entry: journal first (append-before-apply), then
   mutate memory. A torn append — explicit [torn_after] or the armed
   one-shot — kills the server with the entry unaccepted. Returns
   whether the server survived. *)
let accept_entry ?torn_after t ~now (e : Update.entry) =
  let torn_after =
    match torn_after with
    | Some _ -> torn_after
    | None ->
        let armed = t.torn_next in
        t.torn_next <- None;
        armed
  in
  let next = t.seq + 1 in
  Journal.append ?torn_after t.journal ~seq:next
    ~payload:(Update.encode_entry e);
  match torn_after with
  | Some _ ->
      (* Simulated kill mid-append: the entry was never accepted —
         neither applied in memory (we are dead) nor recoverable from
         the torn record (replay skips it). The client retries it. *)
      t.alive <- false;
      false
  | None ->
      apply_entry_mem t e;
      t.seq <- next;
      t.last_applied <- now;
      if t.config.snapshot_every > 0 && t.seq - t.snap_seq >= t.config.snapshot_every
      then checkpoint t;
      true

(* The local path: trusted, unfenced, client id 0. *)
let apply ?torn_after t ~now (u : Update.t) =
  if not t.alive then invalid_arg "Server.apply: server is not alive";
  Update.validate t.topo u;
  let seq = client_seq t ~client:0 + 1 in
  ignore
    (accept_entry ?torn_after t ~now
       (Update.Apply { client = 0; seq; epoch = 0; update = u }))

let check_client what client =
  if client < 1 then
    invalid_arg (Printf.sprintf "Server.%s: client ids start at 1" what)

let submit t ~now ~client ~seq ~epoch (u : Update.t) =
  if not t.alive then invalid_arg "Server.submit: server is not alive";
  check_client "submit" client;
  if seq < 1 then invalid_arg "Server.submit: seq must be >= 1";
  Update.validate t.topo u;
  let cur = client_seq t ~client in
  if seq <= cur then Duplicate
  else if seq > cur + 1 then Seq_gap { expected = cur + 1 }
  else
    let fence =
      match Hashtbl.find_opt t.claim_tbl (Update.touched u) with
      | None -> None
      | Some (owner, held) ->
          if owner = client && epoch >= held then None else Some (owner, held)
    in
    match fence with
    | Some (owner, current) -> Fenced { owner; current }
    | None ->
        if accept_entry t ~now (Update.Apply { client; seq; epoch; update = u })
        then Applied
        else Died

let claim t ~now ~client ~scope =
  if not t.alive then invalid_arg "Server.claim: server is not alive";
  check_client "claim" client;
  let all = Graph.duplex_pairs t.topo in
  let pairs =
    match scope with
    | All -> all
    | Pairs l ->
        if l = [] then invalid_arg "Server.claim: empty pair list";
        let norm = List.sort_uniq compare (List.map (fun (a, b) -> (min a b, max a b)) l) in
        List.iter
          (fun p ->
            if not (List.mem p all) then
              invalid_arg
                (Printf.sprintf "Server.claim: (%d, %d) is not a duplex pair"
                   (fst p) (snd p)))
          norm;
        norm
  in
  let already_owned =
    List.for_all
      (fun p ->
        match Hashtbl.find_opt t.claim_tbl p with
        | Some (owner, _) -> owner = client
        | None -> false)
      pairs
  in
  if already_owned then
    (* Idempotent re-grant: a retried or chaos-duplicated Claim must
       not mint a fresh epoch, or it would fence its own sender's
       in-flight submits. The client's standing grant covers every
       requested pair (grants are monotone per client). *)
    client_epoch t ~client
  else begin
    let epoch = t.epoch + 1 in
    ignore (accept_entry t ~now (Update.Claim { client; epoch; pairs }));
    epoch
  end

(* ---- restore --------------------------------------------------------- *)

let restore ?(config = default_config) ?now ~dir ~topo ~cost () =
  validate_config config;
  let t0 = Unix.gettimeofday () in
  let now = match now with Some n -> n | None -> t0 in
  ensure_dir dir;
  Snapshot.remove_stale_tmp ~path:(snapshot_path dir);
  let snapshot_fallbacks = ref 0 in
  let base =
    match Snapshot.read ~path:(snapshot_path dir) with
    | `Missing -> None
    | `Corrupt reason ->
        incr snapshot_fallbacks;
        (* A snapshot that fails its checksum or has another format
           version is treated as absent: the state it held is recomputed
           from genesis + the journal. Once a checkpoint has reset the
           journal, its base is past genesis and the check below
           refuses, rather than silently losing accepted updates. *)
        Printf.eprintf "snapshot %s: unreadable (%s); falling back to genesis\n%!"
          (snapshot_path dir) reason;
        None
    | `Snapshot payload -> Some (decode_snapshot ~topo payload)
  in
  let from_snapshot = Option.is_some base in
  let base_seq, net, marks, grants, claim_tbl, epoch =
    match base with
    | Some b -> b
    | None -> (0, genesis ~topo ~cost, Hashtbl.create 16, Hashtbl.create 16, Hashtbl.create 32, 0)
  in
  if not (Sys.file_exists (journal_path dir)) then
    Journal.close (Journal.create ~fsync:config.fsync ~base:base_seq ~path:(journal_path dir) ());
  let journal, replay =
    try Journal.open_append ~fsync:config.fsync ~path:(journal_path dir) ()
    with Failure reason -> raise (Unreadable reason)
  in
  let refuse reason =
    Journal.close journal;
    raise (Unreadable reason)
  in
  if base_seq < replay.Journal.base then
    refuse
      (Printf.sprintf "state at seq %d predates the journal, which follows seq %d" base_seq
         replay.Journal.base);
  let tmp =
    make ~marks ~grants ~claim_tbl ~epoch ~config ~dir ~topo ~net ~journal ~seq:base_seq
      ~snap_seq:base_seq ~now ~last_restore:None ()
  in
  let replayed = ref 0 in
  List.iter
    (fun (rec_seq, payload) ->
      if rec_seq > tmp.seq then begin
        if rec_seq <> tmp.seq + 1 then
          refuse
            (Printf.sprintf "journal gap (have seq %d, next record is %d)" tmp.seq rec_seq);
        let e =
          try Update.decode_entry payload
          with Update.Corrupt reason -> refuse ("corrupt journal payload: " ^ reason)
        in
        apply_entry_mem tmp e;
        tmp.seq <- rec_seq;
        incr replayed
      end)
    replay.Journal.entries;
  tmp.last_restore <-
    Some
      {
        replayed = !replayed;
        torn_skipped = replay.Journal.torn;
        from_snapshot;
        duration = Unix.gettimeofday () -. t0;
      };
  tmp.corruption <-
    {
      torn_tails = (if replay.Journal.torn then 1 else 0);
      snapshot_fallbacks = !snapshot_fallbacks;
    };
  tmp

(* ---- backpressure path ----------------------------------------------- *)

let offer t ~now u =
  if not t.alive then invalid_arg "Server.offer: server is not alive";
  Update.validate t.topo u;
  Ingest.offer t.ingest ~now u

let poll ?max t ~now =
  if not t.alive then invalid_arg "Server.poll: server is not alive";
  let updates = Ingest.drain ?max t.ingest ~now in
  List.iter (fun u -> apply t ~now u) updates;
  List.length updates

let drain t ~now =
  let rec go rounds now applied =
    if rounds >= 10_000 then failwith "Server.drain: backlog failed to drain";
    let applied = applied + poll t ~now in
    if Ingest.depth t.ingest = 0 && Ingest.pending_timers t.ingest = 0 then (now, applied)
    else go (rounds + 1) (now +. 1.0) applied
  in
  go 0 now 0

let close t =
  if t.alive then begin
    t.alive <- false;
    Journal.close t.journal
  end

(* ---- queries --------------------------------------------------------- *)

type route = { distance : float; best : int option; successors : int list }

let check_node t name v =
  if v < 0 || v >= Syncnet.node_count t.net then
    invalid_arg (Printf.sprintf "Server.%s: node %d out of range" name v)

let route t ~src ~dst =
  check_node t "route" src;
  check_node t "route" dst;
  let r = Syncnet.router t.net src in
  {
    distance = Router.distance r ~dst;
    best = Router.best_successor r ~dst;
    successors = Router.successors r ~dst;
  }

let split t ~src ~dst =
  check_node t "split" src;
  check_node t "split" dst;
  let r = Syncnet.router t.net src in
  let succs = Router.successors r ~dst in
  let weights =
    List.map
      (fun k ->
        let through = Router.link_cost r ~nbr:k +. Router.neighbor_distance r ~nbr:k ~dst in
        let w = if Float.is_finite through && through > 0.0 then 1.0 /. through else 0.0 in
        (k, w))
      succs
  in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights in
  if total > 0.0 then List.map (fun (k, w) -> (k, w /. total)) weights
  else
    (* all successor costs degenerate (should not happen with validated
       positive costs): split evenly rather than divide by zero *)
    let n = List.length succs in
    List.map (fun k -> (k, 1.0 /. float_of_int n)) succs

(* ---- health ---------------------------------------------------------- *)

let health t ~now =
  let spf_full, spf_rep, spf_fb = Syncnet.spf_totals t.net in
  {
    seq = t.seq;
    snap_seq = t.snap_seq;
    journal_records = Journal.records t.journal;
    queue_depth = Ingest.depth t.ingest;
    pending_timers = Ingest.pending_timers t.ingest;
    status =
      (match Ingest.status t.ingest ~now with `Ok -> Ok | `Degraded -> Degraded);
    staleness = now -. t.last_applied;
    heartbeats = t.heartbeats;
    ingest = Ingest.stats t.ingest;
    last_restore = t.last_restore;
    corruption = t.corruption;
    spf_full_runs = spf_full;
    spf_repairs = spf_rep;
    spf_fallbacks = spf_fb;
  }

let heartbeat t ~now =
  t.heartbeats <- t.heartbeats + 1;
  let h = health t ~now in
  let alarms = ref [] in
  (* Corruption the server survived (torn tails, snapshot fallbacks) is
     reported exactly once, on the first heartbeat after the event —
     the same delta pattern as shedding. *)
  if corruption_events t.corruption > t.corruption_seen then begin
    t.corruption_seen <- corruption_events t.corruption;
    alarms := Survived_corruption t.corruption :: !alarms
  end;
  let shed_new = h.ingest.Ingest.shed - t.shed_seen in
  if shed_new > 0 then begin
    t.shed_seen <- h.ingest.Ingest.shed;
    alarms := Shedding { shed = shed_new } :: !alarms
  end;
  if h.journal_records > t.config.max_replay then
    alarms :=
      Replay_lag { records = h.journal_records; budget = t.config.max_replay }
      :: !alarms;
  if h.staleness > t.config.max_staleness then
    alarms := Stale { age = h.staleness; budget = t.config.max_staleness } :: !alarms;
  !alarms

(* ---- oracles --------------------------------------------------------- *)

let fingerprint t =
  let buf = Buffer.create 4096 in
  let n = Syncnet.node_count t.net in
  for i = 0 to n - 1 do
    Buffer.add_string buf (Router.fingerprint (Syncnet.router t.net i))
  done;
  List.iter
    (fun ((src, dst), cost) ->
      Buffer.add_string buf (Printf.sprintf "L%d>%d=%h;" src dst cost))
    (live_links t.net);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let settled t = Syncnet.quiescent t.net

let lfi_ok t =
  let n = Syncnet.node_count t.net in
  let router = Syncnet.router t.net in
  let neighbors i = Router.up_neighbors (router i) in
  let feasible ~node ~dst = Router.feasible_distance (router node) ~dst in
  let reported ~holder ~about ~dst = Router.neighbor_distance (router holder) ~nbr:about ~dst in
  let ok = ref true in
  for dst = 0 to n - 1 do
    if not (Lfi.lfi_conditions_hold ~n ~neighbors ~feasible ~reported ~dst) then
      ok := false;
    if
      not
        (Lfi.successor_graph_acyclic ~n
           ~successors:(fun ~node -> Router.successors (router node) ~dst)
           ~dst)
    then ok := false
  done;
  !ok
