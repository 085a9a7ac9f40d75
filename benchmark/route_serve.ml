(* route-serve: the route server on CAIRN behind its wire front end. One
   client streams an update mix through Wire_server over the in-process
   pipe (a logical clock, no socket); after every ack the same loop
   asks a fixed number of route + split queries. A round is one session:
   a fresh server taking one stream.

   Every round draws its own stream. Procfault's link failures and
   restorations are a random walk over the set of down links, so the
   cost of one stream depends on how far its walk drifts (a partitioned
   CAIRN routes very differently); averaging over many short streams is
   what keeps a run's figures steady from seed to seed. *)

module Rng = Mdr_util.Rng
module Graph = Mdr_topology.Graph
module Server = Mdr_server.Server
module Update = Mdr_server.Update
module Journal = Mdr_server.Journal
module Procfault = Mdr_faults.Procfault
module Transport = Mdr_wire.Transport
module Client = Mdr_wire.Client
module Wire_server = Mdr_wire.Wire_server
module Proto = Mdr_wire.Proto
module Frame = Mdr_wire.Frame

let updates = 200

(* Route + split pairs asked after every ack. Nothing in the repository
   states a read/write mix for the route server, so this is an assumed
   mix, not a measured one; each run prints the share of its timed wall
   time the queries take (about 1%). *)
let queries_per_ack = 4

(* Rounds every run makes; the digest covers exactly these. *)
let digest_rounds = 10

(* Logical seconds per loop step. One update takes one step, so 50
   submits per logical second stay well under the default token
   bucket's 100/s refill: nothing is ever throttled. *)
let dt = 0.02
let max_steps = (4 * updates) + 1000

let to_update = function
  | Procfault.Cost_change { src; dst; cost } -> Update.Set_cost { src; dst; cost }
  | Procfault.Fail { a; b } -> Update.Link_down { a; b }
  | Procfault.Restore { a; b; cost } -> Update.Link_up { a; b; cost }

type inputs = {
  seed : int;
  round : int;
  topo : Graph.t;
  stream : Update.t array;
  plan : (int * int) array;  (* queries after ack k: [(k-1)*Q, k*Q) *)
}

let draw ~seed ~round =
  let topo = Mdr_topology.Cairn.topology () in
  let stream =
    Array.of_list
      (List.map to_update
         (Procfault.stream ~rng:(Rng.substream ~seed ~index:(3 * round)) ~topo ~updates ()))
  in
  let n = Graph.node_count topo in
  let rng = Rng.substream ~seed ~index:((3 * round) + 1) in
  let plan =
    Array.init (updates * queries_per_ack) (fun _ ->
        let src = Rng.int rng ~bound:n in
        let d = Rng.int rng ~bound:(n - 1) in
        (src, if d >= src then d + 1 else d))
  in
  { seed; round; topo; stream; plan }

let genesis inp ~dir =
  Unix.mkdir dir 0o755;
  Server.create ~config:Server.default_config ~dir ~topo:inp.topo
    ~cost:Procfault.default_base_cost ()

type answers = {
  routes : Server.route array;
  splits : (int * float) list array;
  seq_at : int array;  (* server sequence number when asked *)
}

let answers () =
  let k = updates * queries_per_ack in
  {
    routes = Array.make k { Server.distance = 0.0; best = None; successors = [] };
    splits = Array.make k [];
    seq_at = Array.make k 0;
  }

let route_equal (a : Server.route) (b : Server.route) =
  Float.equal a.distance b.distance && a.best = b.best && a.successors = b.successors

let split_equal = List.equal (fun (a, x) (b, y) -> a = b && Float.equal x y)

let answers_digest a =
  let b = Buffer.create (64 * Array.length a.routes) in
  Array.iteri
    (fun i (r : Server.route) ->
      Printf.bprintf b "%d:%h:%s:%s:" a.seq_at.(i) r.distance
        (match r.best with None -> "-" | Some x -> string_of_int x)
        (String.concat "," (List.map string_of_int r.successors));
      List.iter (fun (k, f) -> Printf.bprintf b "%d=%h," k f) a.splits.(i);
      Buffer.add_char b ';')
    a.routes;
  Digest.to_hex (Digest.string (Buffer.contents b))

type reference = { fp : string; ref_answers : answers }

(* The untimed oracle: the same stream applied directly, queried at the
   same sequence numbers. *)
let reference inp ~dir =
  let srv = genesis inp ~dir in
  let a = answers () in
  Array.iteri
    (fun i u ->
      Server.apply srv ~now:(float_of_int (i + 1)) u;
      for j = 0 to queries_per_ack - 1 do
        let idx = (i * queries_per_ack) + j in
        let src, dst = inp.plan.(idx) in
        a.routes.(idx) <- Server.route srv ~src ~dst;
        a.splits.(idx) <- Server.split srv ~src ~dst;
        a.seq_at.(idx) <- Server.seq srv
      done)
    inp.stream;
  let fp = Server.fingerprint srv in
  Server.close srv;
  { fp; ref_answers = a }

(* The tracer and side records a traced round keeps. *)
type probe = {
  tr : Trace.t;
  apply_steps : Stats.buf;  (* ns of Wire_server.steps that applied an update *)
  idle_steps : Stats.buf;  (* ns of steps that executed no frame *)
  checkpoint_steps : Stats.buf;  (* ns of steps during which snap_seq advanced *)
  mutable snap_seq : int;
}

type timing = { start_ns : int; wall_ns : int; update_ns : float array; query_ns : float array }

(* One round: a session over a fresh server. [probe] adds spans; the untraced
   round pays only the [None] match per call. *)
let session ?probe oracle inp srv (r : reference) =
  let tr = Option.map (fun p -> p.tr) probe in
  let sp name f = Trace.span_opt tr name f in
  let wsrv = Wire_server.create srv in
  let dials = ref 0 in
  let dial ~now =
    incr dials;
    let client_end, server_end = Transport.pipe () in
    ignore (Wire_server.attach wsrv ~now server_end);
    Some client_end
  in
  let client =
    Client.create
      ~rng:(Rng.substream ~seed:inp.seed ~index:((3 * inp.round) + 2))
      ~dial ~updates:inp.stream ()
  in
  let a = answers () in
  let update_ns = Stats.buf () and query_ns = Stats.buf () in
  let acked = ref 0 and sent = ref 0 and win_start = ref 0 and win_q = ref 0 in
  let once = ref true in
  let steps = ref 0 in
  Gc.compact ();
  let t0 = Clock.now_ns () in
  while (not (Client.finished client)) && !steps < max_steps do
    incr steps;
    let now = float_of_int !steps *. dt in
    let ta = Clock.now_ns () in
    sp "client.step" (fun () -> Client.step client ~now);
    let tb = Clock.now_ns () in
    let st = Client.stats client in
    let new_ack = st.Client.acked > !acked in
    if new_ack then begin
      Stats.push update_ns (float_of_int (tb - !win_start - !win_q));
      if st.Client.acked <> !acked + 1 then once := false;
      acked := st.Client.acked;
      Option.iter (fun p -> Trace.set_run p.tr !acked) probe
    end;
    if st.Client.sent > !sent then begin
      sent := st.Client.sent;
      win_start := ta;
      win_q := 0
    end;
    if new_ack then
      for j = 0 to queries_per_ack - 1 do
        let idx = ((!acked - 1) * queries_per_ack) + j in
        let src, dst = inp.plan.(idx) in
        let q0 = Clock.now_ns () in
        let route = sp "server.route" (fun () -> Server.route srv ~src ~dst) in
        let split = sp "server.split" (fun () -> Server.split srv ~src ~dst) in
        let q = Clock.now_ns () - q0 in
        Stats.push query_ns (float_of_int q);
        win_q := !win_q + q;
        a.routes.(idx) <- route;
        a.splits.(idx) <- split;
        a.seq_at.(idx) <- Server.seq srv
      done;
    let seq0 = Server.seq srv in
    let frames = sp "wire_server.step" (fun () -> Wire_server.step wsrv ~now) in
    match probe with
    | None -> ()
    | Some p ->
        let d = float_of_int (Trace.last_duration p.tr) in
        if Server.seq srv > seq0 then begin
          Stats.push p.apply_steps d;
          let h = sp "server.health" (fun () -> Server.health srv ~now) in
          if h.Server.snap_seq > p.snap_seq then begin
            p.snap_seq <- h.Server.snap_seq;
            Stats.push p.checkpoint_steps d
          end
        end
        else if frames = 0 then Stats.push p.idle_steps d
  done;
  let wall_ns = Clock.now_ns () - t0 in
  let cst = Client.stats client and wst = Wire_server.stats wsrv in
  let check = Oracle.check oracle in
  check "client reaches Done" (Client.phase client = Client.Done);
  check "every update acked exactly once, in order" (!once && !acked = updates);
  check "applied = Server.seq = stream length"
    (wst.Wire_server.applied = updates && Server.seq srv = updates);
  check "nothing throttled" (wst.Wire_server.throttled = 0 && cst.Client.throttled = 0);
  check "nothing retried or re-dialed"
    (cst.Client.retries = 0 && !dials = 1 && wst.Wire_server.duplicates = 0);
  check "Server.lfi_ok" (Server.lfi_ok srv);
  check "final fingerprint equals the direct-apply reference"
    (String.equal (Server.fingerprint srv) r.fp
    && Client.fingerprint client = Some r.fp);
  let ra = r.ref_answers in
  Array.iteri
    (fun i route ->
      check "query answer equals the reference at the same sequence number"
        (a.seq_at.(i) = ra.seq_at.(i) && a.seq_at.(i) = (i / queries_per_ack) + 1
        && route_equal route ra.routes.(i)
        && split_equal a.splits.(i) ra.splits.(i)))
    a.routes;
  let digest =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "fp=%s|acks=%d|answers=%s" (Server.fingerprint srv) !acked
            (answers_digest a)))
  in
  let timing =
    {
      start_ns = t0;
      wall_ns;
      update_ns = Stats.contents update_ns;
      query_ns = Stats.contents query_ns;
    }
  in
  (timing, digest, cst, wst)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let combine digests = Digest.to_hex (Digest.string (String.concat "" digests))

let run ~seed ~seconds ~tmp oracle =
  let dir_of name round = Filename.concat tmp (Printf.sprintf "%s-%d" name round) in
  (* Set-up: the stream and query draws plus server genesis. *)
  let setup round =
    let inp = draw ~seed ~round in
    (inp, genesis inp ~dir:(dir_of "round" round))
  in
  let round i (inp, srv) =
    (* The reference pass replays this round's draws; it is not timed. *)
    let r = reference (draw ~seed ~round:i) ~dir:(dir_of "reference" i) in
    remove_tree (dir_of "reference" i);
    let timing, digest, _, _ = session oracle inp srv r in
    Server.close srv;
    remove_tree (dir_of "round" i);
    (timing, digest)
  in
  let rr =
    Rounds.run ~seconds ~min_rounds:digest_rounds ~setup ~round
      ~timed_ns:(fun (t, _) -> t.wall_ns) ()
  in
  let rounds = List.map fst rr.results in
  let digest = combine (List.filteri (fun i _ -> i < digest_rounds) (List.map snd rr.results)) in
  let upd = Array.concat (List.map (fun t -> t.update_ns) rounds) in
  let qry = Array.concat (List.map (fun t -> t.query_ns) rounds) in
  let total_s = Clock.seconds rr.timed_ns in
  let acked = updates * List.length rounds in
  let setup_s = Stats.median rr.setup_s in
  let lines =
    [ Report.line "setup_s" setup_s "s" (Printf.sprintf "(median, n=%d)" (Array.length rr.setup_s));
      Report.line "updates_per_s" (float_of_int acked /. total_s) "1/s"
        (Printf.sprintf "(%d acked in %.3f s, %d rounds)" acked total_s (List.length rounds)) ]
    @ Report.timing_lines ~prefix:"update_ms" ~unit_:"ms" ~scale:1e-6 upd
    @ Report.timing_lines ~prefix:"query_us" ~unit_:"us" ~scale:1e-3 qry
    @ [
        Report.line "query_share" (Array.fold_left ( +. ) 0.0 qry /. float_of_int rr.timed_ns)
          "ratio"
          (Printf.sprintf "(query time / timed wall time; %d pairs per ack, an assumed mix)"
             queries_per_ack);
      ]
  in
  let e2e =
    {
      Report.setup_s;
      ops_per_s = float_of_int acked /. total_s;
      request_ms_p90 = Stats.percentile upd 900 *. 1e-6;
      side_op_ms_p50 = Stats.median qry *. 1e-6;
    }
  in
  (e2e, lines, digest)

let trace ~seed ~tmp oracle tr =
  let rounds = List.init digest_rounds (fun round -> draw ~seed ~round) in
  let dir_of name (inp : inputs) = Filename.concat tmp (Printf.sprintf "%s-%d" name inp.round) in
  let refs =
    List.map
      (fun inp ->
        let r = reference inp ~dir:(dir_of "reference" inp) in
        remove_tree (dir_of "reference" inp);
        r)
      rounds
  in
  (* One pass of every round, with or without a probe. *)
  let pass ?probe name =
    List.map2
      (fun inp r ->
        let dir = dir_of name inp in
        let srv = genesis inp ~dir in
        Option.iter (fun p -> p.snap_seq <- 0) probe;
        let timing, digest, cst, wst = session ?probe oracle inp srv r in
        let health = Server.health srv ~now:0.0 in
        Server.close srv;
        remove_tree dir;
        (timing, digest, cst, wst, health))
      rounds refs
  in
  let untraced = pass "untraced" in
  let p =
    {
      tr;
      apply_steps = Stats.buf ();
      idle_steps = Stats.buf ();
      checkpoint_steps = Stats.buf ();
      snap_seq = 0;
    }
  in
  let traced = pass ~probe:p "traced" in
  (* The untraced baseline brackets the traced rounds, so a drift in the
     host's speed over the run does not read as tracing cost. *)
  let untraced_after = pass "untraced-after" in
  let digest_of l = combine (List.map (fun (_, d, _, _, _) -> d) l) in
  Oracle.check oracle "traced rounds reproduce the untraced digest"
    (String.equal (digest_of untraced) (digest_of traced)
    && String.equal (digest_of untraced) (digest_of untraced_after));
  let sections =
    ref (List.map (fun (t, _, _, _, _) -> (t.start_ns, t.start_ns + t.wall_ns)) traced)
  in
  let total f l = List.fold_left (fun a x -> a + f x) 0 l in
  let wall l = total (fun (t, _, _, _, _) -> t.wall_ns) l in
  (* Side measurements over this run's own inputs. *)
  let s_apply = Trace.name tr "server.apply" in
  List.iter2
    (fun inp r ->
      let dir = dir_of "apply" inp in
      let srv = genesis inp ~dir in
      let t0 = Clock.now_ns () in
      Array.iteri
        (fun i u ->
          Trace.set_run tr (i + 1);
          Trace.span tr s_apply (fun () -> Server.apply srv ~now:(float_of_int (i + 1)) u))
        inp.stream;
      sections := (t0, Clock.now_ns ()) :: !sections;
      Oracle.check oracle "traced apply pass reaches the reference fingerprint"
        (String.equal (Server.fingerprint srv) r.fp);
      Server.close srv;
      remove_tree dir)
    rounds refs;
  let s_append = Trace.name tr "journal.append" in
  let dir = Filename.concat tmp "journal" in
  Unix.mkdir dir 0o755;
  let j = Journal.create ~path:(Filename.concat dir "journal") () in
  let entries =
    List.concat_map
      (fun inp ->
        Array.to_list
          (Array.mapi
             (fun i update ->
               let entry = Update.Apply { client = 1; seq = i + 1; epoch = 0; update } in
               (i + 1, update, Update.encode_entry entry))
             inp.stream))
      rounds
  in
  let t0 = Clock.now_ns () in
  List.iteri
    (fun k (_, _, payload) ->
      Trace.set_run tr (k + 1);
      Trace.span tr s_append (fun () -> Journal.append j ~seq:(k + 1) ~payload))
    entries;
  sections := (t0, Clock.now_ns ()) :: !sections;
  Oracle.check oracle "scratch journal holds every record"
    (Journal.records j = List.length entries);
  Journal.close j;
  remove_tree dir;
  let s_codec = Trace.name tr "wire.codec" in
  let to_server = Frame.decoder () and to_client = Frame.decoder () in
  Frame.feed to_server Frame.greeting;
  Frame.feed to_client Frame.greeting;
  let frame d = match Frame.next d with `Frame p -> p | _ -> "" in
  let codec_ok = ref true in
  let t0 = Clock.now_ns () in
  List.iteri
    (fun k (seq, update, _) ->
      Trace.set_run tr (k + 1);
      let submit = Proto.Submit { seq; epoch = 0; update } in
      let ack = Proto.Ack { client = 1; seq } in
      let s', a' =
        Trace.span tr s_codec (fun () ->
            Frame.feed to_server (Frame.encode (Proto.encode_client submit));
            let s' = Proto.decode_client (frame to_server) in
            Frame.feed to_client (Frame.encode (Proto.encode_server ack));
            (s', Proto.decode_server (frame to_client)))
      in
      if not (s' = submit && a' = ack) then codec_ok := false)
    entries;
  sections := (t0, Clock.now_ns ()) :: !sections;
  Oracle.check oracle "codec round trip reproduces every Submit and Ack" !codec_ok;
  let sum = Trace.summarize tr in
  let us pm (s : Trace.summary) = Stats.us_or_zero s.durations_ns pm in
  let us_of pm b = Stats.us_or_zero (Stats.contents b) pm in
  let apply = sum "server.apply" in
  let count f = float_of_int (total f traced) in
  let spf f = count (fun (_, _, _, _, h) -> f h) in
  let repairs = spf (fun h -> h.Server.spf_repairs) in
  let fallbacks = spf (fun h -> h.Server.spf_fallbacks) in
  let metrics =
    Report.
      [
        metric "client.step.self_s" "s" (Clock.seconds (sum "client.step").self_ns);
        metric "wire_server.step.apply_us_p50" "us" (us_of 500 p.apply_steps);
        metric "wire_server.step.apply_us_p99" "us" (us_of 990 p.apply_steps);
        metric "wire_server.step.idle_us_p50" "us" (us_of 500 p.idle_steps);
        metric "wire.codec_us" "us" (us 500 (sum "wire.codec"));
        metric "wire.overhead_us" "us" (us_of 500 p.apply_steps -. us 500 apply);
        metric "wire_server.throttled" "count"
          (count (fun (_, _, _, w, _) -> w.Wire_server.throttled));
        metric "wire_server.duplicates" "count"
          (count (fun (_, _, _, w, _) -> w.Wire_server.duplicates));
        metric "client.retries" "count" (count (fun (_, _, c, _, _) -> c.Client.retries));
        metric "server.apply.us_p50" "us" (us 500 apply);
        metric "server.apply.us_p99" "us" (us 990 apply);
        metric "journal.append.us_p50" "us" (us 500 (sum "journal.append"));
        metric "snapshot.checkpoints" "count" (float_of_int p.checkpoint_steps.Stats.len);
        metric "snapshot.checkpoint_ms" "ms" (us_of 500 p.checkpoint_steps *. 1e-3);
        metric "server.spf_repairs" "count" repairs;
        metric "server.spf_fallbacks" "count" fallbacks;
        (* The server's 26 routers, summed by Server.health: the only
           routing figures its public interface gives. *)
        metric "incr_spf.full_runs" "count" (spf (fun h -> h.Server.spf_full_runs));
        metric "incr_spf.repairs" "count" repairs;
        metric "incr_spf.fallbacks" "count" fallbacks;
        metric "incr_spf.repair_ratio" "ratio" (repairs /. Float.max 1.0 (repairs +. fallbacks));
        metric "server.route.us_p50" "us" (us 500 (sum "server.route"));
        metric "server.split.us_p50" "us" (us 500 (sum "server.split"));
        metric "trace.overhead_frac" "ratio"
          ((2.0 *. float_of_int (wall traced) /. float_of_int (wall untraced + wall untraced_after))
          -. 1.0);
        metric "trace.coverage_frac" "ratio" (Trace.coverage tr !sections);
      ]
  in
  (metrics, [], digest_of untraced)
