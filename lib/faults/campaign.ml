module Graph = Mdr_topology.Graph
module Engine = Mdr_eventsim.Engine
module Rng = Mdr_util.Rng
module Tab = Mdr_util.Tab

type fault =
  | Flap of { a : int; b : int; at : float; restore_at : float }
  | Cost_surge of { a : int; b : int; at : float; factor : float }
  | Demand_surge of {
      src : int;
      dst : int;
      factor : float;
      at : float;
      until_ : float;
    }
  | Crash of { node : int; at : float; restart_at : float }
  | Partition of { group : int list; at : float; heal_at : float }

type plan = { faults : fault list; channel : Channel.t; duration : float }

type profile = {
  duration : float;
  flaps : int;
  crashes : int;
  cost_surges : int;
  demand_surges : int;
  partition : bool;
  max_drop : float;
  max_duplicate : float;
  max_jitter : float;
  blackout : bool;
}

let default_profile =
  {
    duration = 30.0;
    flaps = 2;
    crashes = 1;
    cost_surges = 2;
    demand_surges = 2;
    partition = true;
    max_drop = 0.3;
    max_duplicate = 0.1;
    max_jitter = 0.02;
    blackout = true;
  }

(* Distinct physical links, one record per duplex pair. *)
let duplex_pairs topo =
  List.filter_map
    (fun (l : Graph.link) -> if l.src < l.dst then Some (l.src, l.dst) else None)
    (Graph.links topo)
  |> Array.of_list

let fault_start = function
  | Flap { at; _ }
  | Cost_surge { at; _ }
  | Demand_surge { at; _ }
  | Crash { at; _ }
  | Partition { at; _ } -> at

let fault_end = function
  | Flap { restore_at; _ } -> restore_at
  | Cost_surge { at; _ } -> at
  | Demand_surge { until_; _ } -> until_
  | Crash { restart_at; _ } -> restart_at
  | Partition { heal_at; _ } -> heal_at

let random_plan ~rng ~topo profile =
  let d = profile.duration in
  if d <= 0.0 then invalid_arg "Campaign.random_plan: non-positive duration";
  let pairs = duplex_pairs topo in
  if Array.length pairs = 0 then invalid_arg "Campaign.random_plan: no duplex links";
  let n = Graph.node_count topo in
  let pick_pair () = pairs.(Rng.int rng ~bound:(Array.length pairs)) in
  (* Fault windows open in the first 60% of the run and always close by
     90%, leaving room to watch reconvergence inside the run itself. *)
  let window () =
    let at = Rng.uniform rng ~lo:(0.05 *. d) ~hi:(0.6 *. d) in
    let until_ = Float.min (0.9 *. d) (at +. Rng.uniform rng ~lo:(0.05 *. d) ~hi:(0.3 *. d)) in
    (at, until_)
  in
  let faults = ref [] in
  for _ = 1 to profile.flaps do
    let a, b = pick_pair () in
    let at, restore_at = window () in
    faults := Flap { a; b; at; restore_at } :: !faults
  done;
  for _ = 1 to profile.cost_surges do
    let a, b = pick_pair () in
    let at = Rng.uniform rng ~lo:(0.05 *. d) ~hi:(0.9 *. d) in
    let factor = Rng.uniform rng ~lo:0.5 ~hi:3.0 in
    faults := Cost_surge { a; b; at; factor } :: !faults
  done;
  (* Demand surges are distinct (src, dst) commodities whose load
     multiplies over a bounded window; like every other fault window
     they close by 0.9 * duration, so the churn the surge causes is
     part of what reconvergence is judged over. *)
  for _ = 1 to profile.demand_surges do
    let src = Rng.int rng ~bound:n in
    let dst = (src + 1 + Rng.int rng ~bound:(n - 1)) mod n in
    let factor = Rng.uniform rng ~lo:1.5 ~hi:4.0 in
    let at, until_ = window () in
    faults := Demand_surge { src; dst; factor; at; until_ } :: !faults
  done;
  (* Crash distinct nodes so windows cannot double-kill one router. *)
  let order = Array.init n Fun.id in
  Rng.shuffle rng order;
  for i = 0 to Int.min profile.crashes n - 1 do
    let at, restart_at = window () in
    faults := Crash { node = order.(i); at; restart_at } :: !faults
  done;
  if profile.partition && n >= 2 then begin
    let size = 1 + Rng.int rng ~bound:(n - 1) in
    let members = Array.init n Fun.id in
    Rng.shuffle rng members;
    let group = Array.to_list (Array.sub members 0 size) in
    let at, heal_at = window () in
    faults := Partition { group = List.sort Int.compare group; at; heal_at } :: !faults
  end;
  let channel =
    Channel.all
      [
        (if profile.max_drop > 0.0 then
           Channel.drop ~until_:d ~p:(Rng.uniform rng ~lo:0.0 ~hi:profile.max_drop) ()
         else Channel.ideal);
        (if profile.max_duplicate > 0.0 then
           Channel.duplicate ~until_:d ~p:(Rng.uniform rng ~lo:0.0 ~hi:profile.max_duplicate) ()
         else Channel.ideal);
        (if profile.max_jitter > 0.0 then
           Channel.jitter ~until_:d ~max_delay:(Rng.uniform rng ~lo:0.0 ~hi:profile.max_jitter) ()
         else Channel.ideal);
        (if profile.blackout then
           let from_ = Rng.uniform rng ~lo:(0.1 *. d) ~hi:(0.7 *. d) in
           Channel.blackout ~from_ ~until_:(from_ +. Rng.uniform rng ~lo:0.0 ~hi:(0.15 *. d))
         else Channel.ideal);
      ]
  in
  {
    faults = List.sort (fun x y -> Float.compare (fault_start x) (fault_start y)) !faults;
    channel;
    duration = d;
  }

type metrics = {
  protocol : string;
  events : int;
  loop_violations : int;
  lfi_violations : int;
  check_failures : int;
  messages : int;
  retransmissions : int;
  transport_acks : int;
  hellos : int;
  active_phases : int;
  detection_latencies : float list;
  detection_absorbed : int;
  detection_false_positives : int;
  blackhole_time : float;
  permanent_blackhole : bool;
  reconvergence : float;
  converged : bool;
}

(* The subset of the harness functor's output the runner needs; both
   Network (MPDA) and Harness.Dv_network satisfy it via the shims
   below. *)
module type NET = sig
  type t

  val create :
    ?detection:Mdr_routing.Harness.detection ->
    ?seed:int ->
    ?observer:(t -> unit) ->
    topo:Graph.t ->
    cost:(Graph.link -> float) ->
    unit ->
    t

  val engine : t -> Engine.t

  val set_channel :
    t -> ?rto_initial:float -> ?rto_max:float -> Mdr_routing.Harness.channel -> unit

  val schedule_link_cost : t -> at:float -> src:int -> dst:int -> cost:float -> unit
  val schedule_fail_duplex : t -> at:float -> a:int -> b:int -> unit
  val schedule_restore_duplex : t -> at:float -> a:int -> b:int -> cost:float -> unit
  val schedule_node_crash : t -> at:float -> node:int -> unit
  val schedule_node_restart : t -> at:float -> node:int -> unit
  val schedule_partition : t -> at:float -> heal_at:float -> group:int list -> unit
  val run : ?until:float -> t -> unit
  val quiescent : t -> bool
  val total_messages : t -> int
  val retransmissions : t -> int
  val transport_acks : t -> int
  val hellos_sent : t -> int
  val total_active_phases : t -> int
  val link_is_up : t -> src:int -> dst:int -> bool
  val node_is_up : t -> int -> bool
  val adj_suppressed : t -> node:int -> nbr:int -> bool
  val adj_flaps : t -> node:int -> nbr:int -> int
  val trace : t -> (float * Mdr_routing.Harness.trace_event) list
  val successor_sets : t -> dst:int -> int -> int list
  val check_loop_free : t -> bool
  val check_lfi : t -> bool

  val check_routers : t -> bool
  (** Every router matches its from-scratch rebuild. *)
end

module Mpda_net = struct
  include Mdr_routing.Network

  let create ?detection ?seed ?observer ~topo ~cost () =
    Mdr_routing.Network.create ?detection ?seed ?observer ~topo ~cost ()

  let check_routers net =
    let rec ok i =
      i < 0 || (Result.is_ok (Mdr_routing.Router.check (router net i)) && ok (i - 1))
    in
    ok (Graph.node_count (topology net) - 1)
end

module Dv_net = struct
  include Mdr_routing.Harness.Dv_network

  let create ?detection ?seed ?observer ~topo ~cost () =
    Mdr_routing.Harness.Dv_network.create ?detection ?seed ?observer ~topo ~cost ()

  let check_routers _ = true
end

(* Costs large enough that DV's RIP-style counting bound (horizon) is
   hit in tens of rounds, not thousands, when a partition or crash
   makes destinations unreachable. *)
let default_cost (l : Graph.link) = 100.0 +. (1000.0 *. l.prop_delay)

(* The min-hop route a surging commodity (src, dst) rides; its directed
   links are what the surge's extra queueing inflates. *)
let min_hop_path topo ~src ~dst =
  let n = Graph.node_count topo in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  seen.(src) <- true;
  let q = Queue.create () in
  Queue.add src q;
  while (not (Queue.is_empty q)) && not seen.(dst) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          parent.(v) <- u;
          Queue.add v q
        end)
      (Graph.neighbors topo u)
  done;
  if not seen.(dst) then []
  else begin
    let rec walk v acc =
      if v = src then acc else walk parent.(v) ((parent.(v), v) :: acc)
    in
    walk dst []
  end

let schedule_fault (type a) (module N : NET with type t = a) (net : a) ~cost ~topo fault =
  match fault with
  | Flap { a; b; at; restore_at } ->
    N.schedule_fail_duplex net ~at ~a ~b;
    N.schedule_restore_duplex net ~at:restore_at ~a ~b
      ~cost:(cost (Graph.link_exn topo ~src:a ~dst:b))
  | Cost_surge { a; b; at; factor } ->
    N.schedule_link_cost net ~at ~src:a ~dst:b
      ~cost:(factor *. cost (Graph.link_exn topo ~src:a ~dst:b));
    N.schedule_link_cost net ~at ~src:b ~dst:a
      ~cost:(factor *. cost (Graph.link_exn topo ~src:b ~dst:a))
  | Demand_surge { src; dst; factor; at; until_ } ->
    (* The control plane sees a demand surge as measured-cost inflation
       along the commodity's path for the window, then restoration —
       overload churn that must end with the churn window. *)
    List.iter
      (fun (u, v) ->
        let base = cost (Graph.link_exn topo ~src:u ~dst:v) in
        N.schedule_link_cost net ~at ~src:u ~dst:v ~cost:(factor *. base);
        N.schedule_link_cost net ~at:until_ ~src:u ~dst:v ~cost:base)
      (min_hop_path topo ~src ~dst)
  | Crash { node; at; restart_at } ->
    N.schedule_node_crash net ~at ~node;
    N.schedule_node_restart net ~at:restart_at ~node
  | Partition { group; at; heal_at } -> N.schedule_partition net ~at ~heal_at ~group

let quiet_time plan =
  List.fold_left
    (fun acc f -> Float.max acc (fault_end f))
    (Channel.quiet_after plan.channel)
    plan.faults

let drive (type a) (module N : NET with type t = a) ~protocol ~detection ~cost
    ~settle_grace ~check_routers ~topo ~seed plan =
  let events = ref 0 and loopv = ref 0 and lfiv = ref 0 and checkf = ref 0 in
  (* Blackhole time is audited from the first injected fault onward —
     the initial cold-start flood (routers legitimately have no routes
     yet) is not an outage. *)
  let first_fault =
    List.fold_left (fun acc f -> Float.min acc (fault_start f)) infinity plan.faults
  in
  let tracker = Recovery.tracker () in
  let observer net =
    incr events;
    if not (N.check_loop_free net) then incr loopv;
    if not (N.check_lfi net) then incr lfiv;
    if check_routers && not (N.check_routers net) then incr checkf;
    let now = Engine.now (N.engine net) in
    if now >= first_fault then
      Recovery.observe tracker ~now
        ~blackholed:
          (Recovery.blackholed ~topo ~node_is_up:(N.node_is_up net)
             ~link_is_up:(fun ~src ~dst -> N.link_is_up net ~src ~dst)
             ~successors:(fun ~dst v -> N.successor_sets net ~dst v))
  in
  let net = N.create ~detection ~seed ~observer ~topo ~cost () in
  let rng = Rng.create ~seed in
  N.set_channel net (Channel.to_channel plan.channel ~rng);
  List.iter (schedule_fault (module N) net ~cost ~topo) plan.faults;
  let quiet = quiet_time plan in
  N.run ~until:quiet net;
  (* Step the remaining events one by one so the instant the network
     settles is observable. *)
  let engine = N.engine net in
  let deadline = quiet +. settle_grace in
  let rec settle () =
    if N.quiescent net then Some (Engine.now engine)
    else if Engine.now engine > deadline || Engine.pending engine = 0 then None
    else begin
      ignore (Engine.step engine);
      settle ()
    end
  in
  let settled = settle () in
  let blackhole_time, blackhole_open = Recovery.finish tracker ~now:(Engine.now engine) in
  let det = Recovery.detect (N.trace net) in
  {
    protocol;
    events = !events;
    loop_violations = !loopv;
    lfi_violations = !lfiv;
    check_failures = !checkf;
    messages = N.total_messages net;
    retransmissions = N.retransmissions net;
    transport_acks = N.transport_acks net;
    hellos = N.hellos_sent net;
    active_phases = N.total_active_phases net;
    detection_latencies = det.Recovery.latencies;
    detection_absorbed = det.Recovery.absorbed;
    detection_false_positives = det.Recovery.false_positives;
    blackhole_time;
    permanent_blackhole = blackhole_open;
    reconvergence = (match settled with Some at -> Float.max 0.0 (at -. quiet) | None -> Float.nan);
    converged = settled <> None && N.check_loop_free net && N.check_lfi net;
  }

let run_mpda ?(detection = Mdr_routing.Harness.Oracle) ?(cost = default_cost)
    ?(settle_grace = 600.0) ?(check_routers = false) ~topo ~seed plan =
  drive (module Mpda_net) ~protocol:"MPDA" ~detection ~cost ~settle_grace ~check_routers
    ~topo ~seed plan

let run_dv ?(detection = Mdr_routing.Harness.Oracle) ?(cost = default_cost)
    ?(settle_grace = 600.0) ~topo ~seed plan =
  drive (module Dv_net) ~protocol:"DV" ~detection ~cost ~settle_grace ~check_routers:false
    ~topo ~seed plan

(* Scenario fan-out. Each index is a closed world — its own rng stream
   (seeded seed + i, so randomness depends only on the index, never on
   domain scheduling), its own topology value, its own plan and
   networks — so scenarios run on a [Mdr_util.Pool] without sharing any
   mutable state. Accumulation happens after the barrier, in the
   caller, over the index-ordered result array: byte-identical output
   at any MDR_JOBS. *)
let run_campaign ?jobs ?detection ?cost ?settle_grace ?(profile = default_profile)
    ~topo_of ~seed ~scenarios () =
  if scenarios < 0 then invalid_arg "Campaign.run_campaign: scenarios < 0";
  Mdr_util.Pool.init ?jobs scenarios (fun i ->
      let s = seed + i in
      let rng = Rng.create ~seed:s in
      let topo = topo_of i rng in
      let plan = random_plan ~rng ~topo profile in
      let mpda = run_mpda ?detection ?cost ?settle_grace ~topo ~seed:s plan in
      let dv = run_dv ?detection ?cost ?settle_grace ~topo ~seed:s plan in
      (mpda, dv))

let fingerprint (m : metrics) =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "%s events=%d loops=%d lfi=%d msgs=%d rexmit=%d acks=%d hellos=%d active=%d"
    m.protocol m.events m.loop_violations m.lfi_violations m.messages
    m.retransmissions m.transport_acks m.hellos m.active_phases;
  List.iter (Printf.bprintf b " det=%h") m.detection_latencies;
  Printf.bprintf b
    " absorbed=%d falsepos=%d blackhole=%h permanent=%b reconv=%h conv=%b"
    m.detection_absorbed m.detection_false_positives m.blackhole_time
    m.permanent_blackhole m.reconvergence m.converged;
  Buffer.contents b

let digest results =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i (mpda, dv) ->
      Printf.bprintf b "%d %s\n%d %s\n" i (fingerprint mpda) i (fingerprint dv))
    results;
  Digest.to_hex (Digest.string (Buffer.contents b))

let successor_agreement ?(cost = default_cost) ?channel ~topo ~seed () =
  let channel = match channel with Some c -> c | None -> Channel.drop ~p:0.2 () in
  let converge ch =
    let net = Mpda_net.create ~topo ~cost () in
    (match ch with
    | Some c -> Mpda_net.set_channel net (Channel.to_channel c ~rng:(Rng.create ~seed))
    | None -> ());
    let engine = Mpda_net.engine net in
    let rec settle () =
      if Mpda_net.quiescent net then true
      else if Engine.now engine > 600.0 || Engine.pending engine = 0 then false
      else begin
        ignore (Engine.step engine);
        settle ()
      end
    in
    let ok = settle () in
    (ok, net)
  in
  let ok_ideal, ideal = converge None in
  let ok_lossy, lossy = converge (Some channel) in
  let n = Graph.node_count topo in
  let same = ref (ok_ideal && ok_lossy) in
  for dst = 0 to n - 1 do
    for node = 0 to n - 1 do
      if node <> dst then begin
        let a = List.sort Int.compare (Mpda_net.successor_sets ideal ~dst node) in
        let b = List.sort Int.compare (Mpda_net.successor_sets lossy ~dst node) in
        if a <> b then same := false
      end
    done
  done;
  (!same, Mpda_net.retransmissions lossy)

let describe_fault topo fault =
  let name = Graph.name topo in
  match fault with
  | Flap { a; b; at; restore_at } ->
    Printf.sprintf "t=%5.1fs  flap %s-%s (restore t=%.1fs)" at (name a) (name b) restore_at
  | Cost_surge { a; b; at; factor } ->
    Printf.sprintf "t=%5.1fs  cost x%.2f on %s-%s" at factor (name a) (name b)
  | Demand_surge { src; dst; factor; at; until_ } ->
    Printf.sprintf "t=%5.1fs  demand x%.2f on %s->%s (ends t=%.1fs)" at factor
      (name src) (name dst) until_
  | Crash { node; at; restart_at } ->
    Printf.sprintf "t=%5.1fs  crash %s (restart t=%.1fs)" at (name node) restart_at
  | Partition { group; at; heal_at } ->
    Printf.sprintf "t=%5.1fs  partition {%s} (heal t=%.1fs)" at
      (String.concat ", " (List.map name group))
      heal_at

let summary_table batches =
  let rows =
    List.map
      (fun (label, runs) ->
        let total f = List.fold_left (fun acc m -> acc + f m) 0 runs in
        let reconvs =
          List.filter_map
            (fun m -> if Float.is_nan m.reconvergence then None else Some m.reconvergence)
            runs
        in
        let mean =
          match reconvs with
          | [] -> Float.nan
          | _ ->
            List.fold_left ( +. ) 0.0 reconvs /. float_of_int (List.length reconvs)
        in
        let worst = List.fold_left Float.max 0.0 reconvs in
        [
          label;
          string_of_int (List.length runs);
          string_of_int (total (fun m -> m.events));
          string_of_int (total (fun m -> m.loop_violations));
          string_of_int (total (fun m -> m.lfi_violations));
          string_of_int (total (fun m -> m.messages));
          string_of_int (total (fun m -> m.retransmissions));
          Tab.float_cell ~decimals:2 mean;
          Tab.float_cell ~decimals:2 worst;
          Printf.sprintf "%d/%d"
            (List.length (List.filter (fun m -> m.converged) runs))
            (List.length runs);
        ])
      batches
  in
  Tab.render
    ~header:
      [
        "campaign"; "runs"; "events"; "loop-viol"; "lfi-viol"; "msgs"; "retx";
        "reconv-mean(s)"; "reconv-max(s)"; "converged";
      ]
    rows

let slo_table runs =
  let cell v = Tab.float_cell ~decimals:3 v in
  let row label (s : Recovery.slo) =
    [
      label;
      string_of_int s.Recovery.count;
      cell s.Recovery.p50;
      cell s.Recovery.p95;
      cell s.Recovery.max_;
    ]
  in
  Tab.render
    ~header:[ "recovery SLO"; "n"; "p50(s)"; "p95(s)"; "max(s)" ]
    [
      row "detection latency"
        (Recovery.slo (List.concat_map (fun m -> m.detection_latencies) runs));
      row "blackhole time / run"
        (Recovery.slo (List.map (fun m -> m.blackhole_time) runs));
      row "reconvergence / run"
        (Recovery.slo (List.map (fun m -> m.reconvergence) runs));
    ]

(* --- Flap-damping demonstration ---------------------------------------- *)

module Hello = Mdr_routing.Hello

type damping_result = {
  active_phases_damped : int;
  active_phases_undamped : int;
  detected_flaps_damped : int;
  detected_flaps_undamped : int;
  suppressed_during_flaps : bool;
}

let damping_demo ?(flaps = 6) ?(period = 5.0) ?link ~topo ~seed () =
  let a, b =
    match link with
    | Some ab -> ab
    | None ->
      let pairs = duplex_pairs topo in
      if Array.length pairs = 0 then invalid_arg "Campaign.damping_demo: no duplex links";
      pairs.(0)
  in
  let dead = Hello.default_params.Hello.dead_interval in
  if period /. 2.0 <= dead then
    invalid_arg "Campaign.damping_demo: down-time must exceed the dead interval";
  let base = 5.0 in
  let last_restore = base +. (float_of_int (flaps - 1) *. period) +. (period /. 2.0) in
  let run damping =
    let params = { Hello.default_params with damping } in
    let net =
      Mpda_net.create
        ~detection:(Mdr_routing.Harness.Hello params)
        ~seed ~topo ~cost:default_cost ()
    in
    let engine = Mpda_net.engine net in
    let suppressed = ref false in
    for i = 0 to flaps - 1 do
      let t0 = base +. (float_of_int i *. period) in
      Mpda_net.schedule_fail_duplex net ~at:t0 ~a ~b;
      Mpda_net.schedule_restore_duplex net
        ~at:(t0 +. (period /. 2.0))
        ~a ~b
        ~cost:(default_cost (Graph.link_exn topo ~src:a ~dst:b));
      (* Probe suppression once each failure has had time to be
         detected. *)
      ignore
        (Engine.schedule_at engine ~time:(t0 +. dead +. 0.2) (fun () ->
             if
               Mpda_net.adj_suppressed net ~node:a ~nbr:b
               || Mpda_net.adj_suppressed net ~node:b ~nbr:a
             then suppressed := true))
    done;
    Mpda_net.run ~until:last_restore net;
    let deadline = last_restore +. 120.0 in
    let rec settle () =
      if Mpda_net.quiescent net then ()
      else if Engine.now engine > deadline || Engine.pending engine = 0 then ()
      else begin
        ignore (Engine.step engine);
        settle ()
      end
    in
    settle ();
    ( Mpda_net.total_active_phases net,
      Mpda_net.adj_flaps net ~node:a ~nbr:b + Mpda_net.adj_flaps net ~node:b ~nbr:a,
      !suppressed )
  in
  let damped_active, damped_flaps, damped_suppressed = run (Some Hello.default_damping) in
  let undamped_active, undamped_flaps, _ = run None in
  {
    active_phases_damped = damped_active;
    active_phases_undamped = undamped_active;
    detected_flaps_damped = damped_flaps;
    detected_flaps_undamped = undamped_flaps;
    suppressed_during_flaps = damped_suppressed;
  }
