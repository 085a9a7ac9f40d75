module Graph = Mdr_topology.Graph
module Router = Mdr_routing.Router
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
  routers : Router.t array;
  link_state : (int * int, float) Hashtbl.t;  (* directed link -> current cost *)
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

(* ---- the synchronous message pump ------------------------------------ *)

(* Deliver control messages FIFO with zero delay until the plane is
   quiescent. This is one valid schedule of the paper's oracle model, and
   because it is a deterministic function of the seed messages, the whole
   server state is a pure function of the accepted update sequence —
   which is what lets snapshot + replay reproduce it bit-for-bit. *)
let pump routers link_state seeds =
  let q = Queue.create () in
  let push from outs =
    List.iter (fun (o : Router.output) -> Queue.push (from, o) q) outs
  in
  List.iter (fun (from, outs) -> push from outs) seeds;
  let delivered = ref 0 in
  while not (Queue.is_empty q) do
    incr delivered;
    if !delivered > 10_000_000 then
      failwith "Server: control plane failed to quiesce";
    let from, ({ dst; msg } : Router.output) = Queue.pop q in
    (* A message only arrives if its link still exists; the receiver
       additionally drops traffic from neighbors it considers down. *)
    if Hashtbl.mem link_state (from, dst) then
      push dst (Router.handle_msg routers.(dst) ~from_:from msg)
  done

(* ---- applying updates ------------------------------------------------ *)

let apply_mem t (u : Update.t) =
  let pump = pump t.routers t.link_state in
  match u with
  | Update.Set_cost { src; dst; cost } ->
      if Hashtbl.mem t.link_state (src, dst) then begin
        Hashtbl.replace t.link_state (src, dst) cost;
        pump [ (src, Router.handle_link_cost t.routers.(src) ~nbr:dst ~cost) ]
      end
      (* cost news about a down link changes nothing until it comes up *)
  | Update.Link_down { a; b } ->
      if Hashtbl.mem t.link_state (a, b) then begin
        Hashtbl.remove t.link_state (a, b);
        Hashtbl.remove t.link_state (b, a);
        let outs_a = Router.handle_link_down t.routers.(a) ~nbr:b in
        let outs_b = Router.handle_link_down t.routers.(b) ~nbr:a in
        pump [ (a, outs_a); (b, outs_b) ]
      end
  | Update.Link_up { a; b; cost } ->
      if Hashtbl.mem t.link_state (a, b) then begin
        (* already up: take it as fresh cost news for both directions *)
        Hashtbl.replace t.link_state (a, b) cost;
        Hashtbl.replace t.link_state (b, a) cost;
        let outs_a = Router.handle_link_cost t.routers.(a) ~nbr:b ~cost in
        let outs_b = Router.handle_link_cost t.routers.(b) ~nbr:a ~cost in
        pump [ (a, outs_a); (b, outs_b) ]
      end
      else begin
        Hashtbl.replace t.link_state (a, b) cost;
        Hashtbl.replace t.link_state (b, a) cost;
        let outs_a = Router.handle_link_up t.routers.(a) ~nbr:b ~cost in
        let outs_b = Router.handle_link_up t.routers.(b) ~nbr:a ~cost in
        pump [ (a, outs_a); (b, outs_b) ]
      end

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

let sorted_links t = (Mdr_util.Sorted_tbl.bindings t.link_state : ((int * int) * float) list)

let snapshot_payload t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (topo_digest t.topo);
  Buffer.add_int64_be buf (Int64.of_int t.seq);
  Buffer.add_int32_be buf (Int32.of_int (Array.length t.routers));
  Array.iter
    (fun r ->
      let blob = Router.snapshot r in
      Buffer.add_int32_be buf (Int32.of_int (String.length blob));
      Buffer.add_string buf blob)
    t.routers;
  let links = sorted_links t in
  Buffer.add_int32_be buf (Int32.of_int (List.length links));
  List.iter
    (fun ((src, dst), cost) ->
      Buffer.add_int32_be buf (Int32.of_int src);
      Buffer.add_int32_be buf (Int32.of_int dst);
      Buffer.add_int64_be buf (Int64.bits_of_float cost))
    links;
  (* v2: the writer tables, sorted so the payload is canonical. *)
  let mks = marks t in
  Buffer.add_int32_be buf (Int32.of_int (List.length mks));
  List.iter
    (fun (client, s) ->
      Buffer.add_int32_be buf (Int32.of_int client);
      Buffer.add_int64_be buf (Int64.of_int s))
    mks;
  let gts = (Mdr_util.Sorted_tbl.bindings t.grants : (int * int) list) in
  Buffer.add_int32_be buf (Int32.of_int (List.length gts));
  List.iter
    (fun (client, e) ->
      Buffer.add_int32_be buf (Int32.of_int client);
      Buffer.add_int32_be buf (Int32.of_int e))
    gts;
  let cls = claims t in
  Buffer.add_int32_be buf (Int32.of_int (List.length cls));
  List.iter
    (fun ((a, b), (owner, e)) ->
      Buffer.add_int32_be buf (Int32.of_int a);
      Buffer.add_int32_be buf (Int32.of_int b);
      Buffer.add_int32_be buf (Int32.of_int owner);
      Buffer.add_int32_be buf (Int32.of_int e))
    cls;
  Buffer.add_int32_be buf (Int32.of_int t.epoch);
  Buffer.contents buf

exception Unreadable of string

let decode_snapshot ~topo payload =
  let pos = ref 0 in
  let need n =
    if !pos + n > String.length payload then
      raise (Unreadable "snapshot payload truncated")
  in
  let read_digest () =
    need 16;
    let d = String.sub payload !pos 16 in
    pos := !pos + 16;
    d
  in
  let read_i64 () =
    need 8;
    let v = Int64.to_int (String.get_int64_be payload !pos) in
    pos := !pos + 8;
    v
  in
  let read_u32 () =
    need 4;
    let v = Int32.to_int (String.get_int32_be payload !pos) in
    pos := !pos + 4;
    if v < 0 then raise (Unreadable "negative length field");
    v
  in
  let read_f64 () =
    need 8;
    let v = Int64.float_of_bits (String.get_int64_be payload !pos) in
    pos := !pos + 8;
    v
  in
  let digest = read_digest () in
  if not (String.equal digest (topo_digest topo)) then
    raise
      (Unreadable
         "snapshot was taken for a different topology (digest mismatch)");
  let snap_seq = read_i64 () in
  let n = read_u32 () in
  if n <> Graph.node_count topo then
    raise (Unreadable "snapshot router count does not match topology");
  let routers =
    Array.init n (fun _ ->
        let len = read_u32 () in
        need len;
        let blob = String.sub payload !pos len in
        pos := !pos + len;
        Router.restore blob)
  in
  let n_links = read_u32 () in
  let link_state = Hashtbl.create (max 16 (2 * n_links)) in
  for _ = 1 to n_links do
    let src = read_u32 () in
    let dst = read_u32 () in
    let cost = read_f64 () in
    Hashtbl.replace link_state (src, dst) cost
  done;
  let marks = Hashtbl.create 16 in
  let n_marks = read_u32 () in
  for _ = 1 to n_marks do
    let client = read_u32 () in
    let s = read_i64 () in
    Hashtbl.replace marks client s
  done;
  let grants = Hashtbl.create 16 in
  let n_grants = read_u32 () in
  for _ = 1 to n_grants do
    let client = read_u32 () in
    let e = read_u32 () in
    Hashtbl.replace grants client e
  done;
  let claim_tbl = Hashtbl.create 32 in
  let n_claims = read_u32 () in
  for _ = 1 to n_claims do
    let a = read_u32 () in
    let b = read_u32 () in
    let owner = read_u32 () in
    let e = read_u32 () in
    Hashtbl.replace claim_tbl (a, b) (owner, e)
  done;
  let epoch = read_u32 () in
  if !pos <> String.length payload then
    raise (Unreadable "trailing bytes in snapshot payload");
  (snap_seq, routers, link_state, marks, grants, claim_tbl, epoch)

(* ---- construction ---------------------------------------------------- *)

(* Deterministic bring-up of the whole network from nothing: every link
   comes up in the topology's insertion order, each followed by a pump to
   quiescence. Never journaled — it is recomputed, identically, by any
   restore that lacks a snapshot. *)
let genesis ~topo ~cost =
  let n = Graph.node_count topo in
  let routers =
    Array.init n (fun id -> Router.create ~mode:Router.Mpda ~id ~n ())
  in
  let link_state = Hashtbl.create (max 16 (2 * Graph.link_count topo)) in
  let pump = pump routers link_state in
  (* Links must come up duplex-atomically: a router's link-up LSU
     demands an ACK, and the peer drops messages from neighbors it
     still considers down — bringing the directions up one pump apart
     would strand the first sender in ACTIVE forever. *)
  List.iter
    (fun (l : Graph.link) ->
      match Graph.link topo ~src:l.dst ~dst:l.src with
      | Some rev ->
          if l.src < l.dst then begin
            let c_fwd = cost l and c_rev = cost rev in
            Hashtbl.replace link_state (l.src, l.dst) c_fwd;
            Hashtbl.replace link_state (l.dst, l.src) c_rev;
            pump
              [
                (l.src, Router.handle_link_up routers.(l.src) ~nbr:l.dst ~cost:c_fwd);
                (l.dst, Router.handle_link_up routers.(l.dst) ~nbr:l.src ~cost:c_rev);
              ]
          end
          (* the reverse direction was handled with its partner *)
      | None ->
          let c = cost l in
          Hashtbl.replace link_state (l.src, l.dst) c;
          pump
            [ (l.src, Router.handle_link_up routers.(l.src) ~nbr:l.dst ~cost:c) ])
    (Graph.links topo);
  (routers, link_state)

let make ?(marks = Hashtbl.create 16) ?(grants = Hashtbl.create 16)
    ?(claim_tbl = Hashtbl.create 32) ?(epoch = 0) ~config ~dir ~topo ~routers
    ~link_state ~journal ~seq ~snap_seq ~now ~last_restore () =
  let ingest =
    Ingest.create ?damping:config.damping ~degraded_hold:config.degraded_hold
      ~capacity:config.queue_capacity
      ~initial_cost:(fun ~src ~dst ->
        match Hashtbl.find_opt link_state (src, dst) with
        | Some c -> c
        | None -> infinity)
      ()
  in
  {
    topo;
    dir;
    config;
    routers;
    link_state;
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
  let routers, link_state = genesis ~topo ~cost in
  let journal = Journal.create ~fsync:config.fsync ~path:(journal_path dir) () in
  make ~config ~dir ~topo ~routers ~link_state ~journal ~seq:0 ~snap_seq:0
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
      t.journal <- Journal.create ~fsync:t.config.fsync ~path:(journal_path t.dir) ()

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
  let all = Mdr_faults.Procfault.duplex_pairs t.topo in
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
        (* A snapshot that fails its checksum is treated as absent: the
           state it held is recomputed from genesis + the journal. If the
           journal alone cannot reach it, replay detects the gap below
           and refuses, rather than silently losing accepted updates. *)
        Printf.eprintf "snapshot %s: unreadable (%s); falling back to genesis\n%!"
          (snapshot_path dir) reason;
        None
    | `Snapshot payload -> Some (decode_snapshot ~topo payload)
  in
  let from_snapshot = Option.is_some base in
  let base_seq, routers, link_state, marks, grants, claim_tbl, epoch =
    match base with
    | Some b -> b
    | None ->
        let routers, link_state = genesis ~topo ~cost in
        (0, routers, link_state, Hashtbl.create 16, Hashtbl.create 16,
         Hashtbl.create 32, 0)
  in
  let journal, replay =
    if Sys.file_exists (journal_path dir) then
      try Journal.open_append ~fsync:config.fsync ~path:(journal_path dir) ()
      with Failure reason -> raise (Unreadable reason)
    else
      ( Journal.create ~fsync:config.fsync ~path:(journal_path dir) (),
        { Journal.entries = []; torn = false; clean_bytes = Codec.header_len } )
  in
  let tmp =
    make ~marks ~grants ~claim_tbl ~epoch ~config ~dir ~topo ~routers
      ~link_state ~journal ~seq:base_seq ~snap_seq:base_seq ~now
      ~last_restore:None ()
  in
  let replayed = ref 0 in
  List.iter
    (fun (rec_seq, payload) ->
      if rec_seq > tmp.seq then begin
        if rec_seq <> tmp.seq + 1 then
          raise
            (Unreadable
               (Printf.sprintf "journal gap (have seq %d, next record is %d)"
                  tmp.seq rec_seq));
        let e =
          try Update.decode_entry payload
          with Update.Corrupt reason ->
            raise (Unreadable ("corrupt journal payload: " ^ reason))
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
  if v < 0 || v >= Array.length t.routers then
    invalid_arg (Printf.sprintf "Server.%s: node %d out of range" name v)

let route t ~src ~dst =
  check_node t "route" src;
  check_node t "route" dst;
  let r = t.routers.(src) in
  {
    distance = Router.distance r ~dst;
    best = Router.best_successor r ~dst;
    successors = Router.successors r ~dst;
  }

let split t ~src ~dst =
  check_node t "split" src;
  check_node t "split" dst;
  let r = t.routers.(src) in
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
  let spf_full, spf_rep, spf_fb =
    Array.fold_left
      (fun (f, r, b) router ->
        let s = Router.spf_stats router in
        ( f + s.Mdr_routing.Incr_spf.full_runs,
          r + s.Mdr_routing.Incr_spf.repairs,
          b + s.Mdr_routing.Incr_spf.fallbacks ))
      (0, 0, 0) t.routers
  in
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
  Array.iter (fun r -> Buffer.add_string buf (Router.fingerprint r)) t.routers;
  List.iter
    (fun ((src, dst), cost) ->
      Buffer.add_string buf (Printf.sprintf "L%d>%d=%h;" src dst cost))
    (sorted_links t);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let settled t = Array.for_all Router.is_passive t.routers

let lfi_ok t =
  let n = Array.length t.routers in
  let neighbors i = Router.up_neighbors t.routers.(i) in
  let feasible ~node ~dst = Router.feasible_distance t.routers.(node) ~dst in
  let reported ~holder ~about ~dst =
    Router.neighbor_distance t.routers.(holder) ~nbr:about ~dst
  in
  let ok = ref true in
  for dst = 0 to n - 1 do
    if not (Lfi.lfi_conditions_hold ~n ~neighbors ~feasible ~reported ~dst) then
      ok := false;
    if
      not
        (Lfi.successor_graph_acyclic ~n
           ~successors:(fun ~node -> Router.successors t.routers.(node) ~dst)
           ~dst)
    then ok := false
  done;
  !ok
