module Graph = Mdr_topology.Graph
module Engine = Mdr_eventsim.Engine
module Rng = Mdr_util.Rng

module type ROUTER = sig
  type t
  type msg

  val create : id:int -> n:int -> t
  val handle_link_up : t -> nbr:int -> cost:float -> (int * msg) list
  val handle_link_down : t -> nbr:int -> (int * msg) list
  val handle_link_down_unconfirmed : t -> nbr:int -> (int * msg) list
  val confirm_link_down : t -> nbr:int -> (int * msg) list
  val handle_link_cost : t -> nbr:int -> cost:float -> (int * msg) list
  val handle_msg : t -> from_:int -> msg -> (int * msg) list
  val is_passive : t -> bool
  val distance : t -> dst:int -> float
  val successors : t -> dst:int -> int list
  val feasible_distance : t -> dst:int -> float
  val neighbor_distance : t -> nbr:int -> dst:int -> float
  val up_neighbors : t -> int list
  val messages_sent : t -> int
  val active_phases : t -> int
end

type channel = src:int -> dst:int -> now:float -> float list

type detection = Oracle | Hello of Hello.params

type down_cause = [ `Oracle | `Dead | `One_way | `Peer_reset ]

type trace_event =
  | Phys_down of { src : int; dst : int }
  | Phys_up of { src : int; dst : int }
  | Adj_down of { node : int; nbr : int; cause : down_cause }
  | Adj_up of { node : int; nbr : int }

let ideal_channel : channel = fun ~src:_ ~dst:_ ~now:_ -> [ 0.0 ]

module Make (R : ROUTER) = struct
  (* Reliable-transport state, one record per directed link. Engaged
     when a channel fault model is installed, and always under hello
     detection (an undetected physical flap loses in-flight frames even
     with a faultless channel model). *)
  type tx = {
    mutable next_tseq : int;
    mutable unacked : (int * R.msg) list;  (* oldest first *)
    mutable rto : float;
    mutable timer : Engine.event_id option;
  }

  type rx = {
    mutable expected : int;
    mutable ep : int;
        (* the stream epoch this receive state belongs to; a live frame
           with a newer epoch means the sender reset the stream after a
           one-sided adjacency loss, so we resync from tseq 0 *)
    held : (int, R.msg) Hashtbl.t;  (* out-of-order frames awaiting delivery *)
  }

  type frame =
    | Data of { ep : int; tseq : int; payload : R.msg }
    | Tack of { ep : int; upto : int }
        (* cumulative transport ACK for the reverse direction; [ep] is
           the epoch of the *data* direction being acknowledged *)

  type t = {
    topo : Graph.t;
    engine : Engine.t;
    routers : R.t array;
    make_router : id:int -> n:int -> R.t;
    detection : detection;
    rng : Rng.t;
    up : (int * int, unit) Hashtbl.t;  (* directed links physically up *)
    epoch : (int * int, int) Hashtbl.t;
        (* bumped whenever a directed link goes logically down, so
           in-flight frames from a previous up-period die at arrival *)
    cost_now : (int * int, float) Hashtbl.t;  (* last applied cost *)
    admin_down : (int * int, unit) Hashtbl.t;  (* explicitly failed links *)
    alive : bool array;
    session : (int * int, int) Hashtbl.t;
        (* per directed link, the sender's adjacency session number
           carried in its hellos. Bumped at every routing-visible
           teardown of that direction (and at node crashes), it makes
           teardown bilateral: the peer cannot keep — or re-form — an
           adjacency across our reset without seeing the session
           change and resetting too. That closes the window where one
           side raises its feasible distance without the other's ACK
           and where a surviving transport stream deadlocks against a
           reset receiver. *)
    adj : (int * int, Hello.adj) Hashtbl.t;  (* (node, nbr) detector state *)
    hello_on : (int * int, unit) Hashtbl.t;  (* hello loop running per direction *)
    mutable aux_pending : int;
        (* scheduled events that carry no protocol obligation (hello
           ticks, hello frames, dead checks) — excluded from quiescence *)
    mutable trace_rev : (float * trace_event) list;
    mutable channel : channel option;
    mutable cost_damping : Cost_trigger.params option;
    triggers : (int * int, Cost_trigger.t) Hashtbl.t;
        (* per directed link, the cost-change damper standing between
           measured costs and [handle_link_cost]; discarded whenever
           the adjacency (re-)forms, since link-up re-announces the
           cost out of band *)
    mutable cost_updates_offered : int;
    mutable cost_updates_applied : int;
    tx : (int * int, tx) Hashtbl.t;
    rx : (int * int, rx) Hashtbl.t;
    mutable rto_initial : float;
    mutable rto_max : float;
    mutable retransmissions : int;
    mutable transport_acks : int;
    mutable hellos_sent : int;
    mutable crashed_active_phases : int;
        (* ACTIVE-phase counts of routers destroyed by crashes, so
           [total_active_phases] survives router replacement *)
    observer : t -> unit;
  }

  let engine t = t.engine
  let topology t = t.topo
  let router t i = t.routers.(i)
  let detection t = t.detection
  let link_is_up t ~src ~dst = Hashtbl.mem t.up (src, dst)
  let node_is_up t node = t.alive.(node)
  let prop_delay t ~src ~dst = (Graph.link_exn t.topo ~src ~dst).Graph.prop_delay
  let retransmissions t = t.retransmissions
  let transport_acks t = t.transport_acks
  let hellos_sent t = t.hellos_sent
  let cost_updates_offered t = t.cost_updates_offered
  let cost_updates_applied t = t.cost_updates_applied

  let trace t = List.rev t.trace_rev
  let record t ev = t.trace_rev <- (Engine.now t.engine, ev) :: t.trace_rev

  let hello_params t =
    match t.detection with
    | Hello p -> p
    | Oracle -> invalid_arg "Harness: no hello params under oracle detection"

  let transport_engaged t =
    match (t.channel, t.detection) with
    | Some _, _ | _, Hello _ -> true
    | None, Oracle -> false

  let channel_fn t = match t.channel with Some ch -> ch | None -> ideal_channel

  let current_epoch t key =
    match Hashtbl.find_opt t.epoch key with Some e -> e | None -> 0

  let bump_epoch t key = Hashtbl.replace t.epoch key (current_epoch t key + 1)

  let session_of t key =
    match Hashtbl.find_opt t.session key with Some s -> s | None -> 0

  let bump_session t key = Hashtbl.replace t.session key (session_of t key + 1)

  let get_tx t key =
    match Hashtbl.find_opt t.tx key with
    | Some s -> s
    | None ->
      let s = { next_tseq = 0; unacked = []; rto = t.rto_initial; timer = None } in
      Hashtbl.replace t.tx key s;
      s

  let get_rx t key =
    match Hashtbl.find_opt t.rx key with
    | Some s -> s
    | None ->
      let s = { expected = 0; ep = current_epoch t key; held = Hashtbl.create 4 } in
      Hashtbl.replace t.rx key s;
      s

  let reset_tx t key =
    match Hashtbl.find_opt t.tx key with
    | Some s ->
      (match s.timer with Some id -> Engine.cancel t.engine id | None -> ());
      Hashtbl.remove t.tx key
    | None -> ()

  let reset_rx t key = Hashtbl.remove t.rx key

  let reset_transport t key =
    reset_tx t key;
    reset_rx t key

  (* Events with no protocol obligation: quiescence ignores them. *)
  let schedule_aux t ~delay f =
    t.aux_pending <- t.aux_pending + 1;
    ignore
      (Engine.schedule t.engine ~delay (fun () ->
           t.aux_pending <- t.aux_pending - 1;
           f ()))

  let schedule_aux_at t ~time f =
    t.aux_pending <- t.aux_pending + 1;
    ignore
      (Engine.schedule_at t.engine ~time (fun () ->
           t.aux_pending <- t.aux_pending - 1;
           f ()))

  (* --- Adjacency state ------------------------------------------------- *)

  let get_adj t key =
    match Hashtbl.find_opt t.adj key with
    | Some a -> a
    | None ->
      let a = Hello.create (hello_params t) in
      Hashtbl.replace t.adj key a;
      a

  let adj_state t ~node ~nbr =
    match t.detection with
    | Oracle -> if link_is_up t ~src:node ~dst:nbr then Hello.Full else Hello.Down
    | Hello _ -> (
      match Hashtbl.find_opt t.adj (node, nbr) with
      | Some a -> Hello.state a
      | None -> Hello.Down)

  let adj_is_up t ~src ~dst = adj_state t ~node:src ~nbr:dst = Hello.Full

  let adj_suppressed t ~node ~nbr =
    match Hashtbl.find_opt t.adj (node, nbr) with
    | Some a -> Hello.suppressed a
    | None -> false

  let adj_flaps t ~node ~nbr =
    match Hashtbl.find_opt t.adj (node, nbr) with
    | Some a -> Hello.flaps a
    | None -> 0

  (* May this endpoint hand frames to / accept frames from the peer?
     Under the oracle this is physical link state; under hello
     detection it is the endpoint's *belief* (its adjacency), which is
     exactly what a real router acts on. *)
  let send_ok t ~src ~dst =
    match t.detection with
    | Oracle -> link_is_up t ~src ~dst
    | Hello _ -> adj_is_up t ~src ~dst

  let recv_ok t ~src ~dst =
    match t.detection with Oracle -> true | Hello _ -> adj_is_up t ~src:dst ~dst:src

  (* --- Frame-level channel crossing ------------------------------------ *)

  (* Ask the channel model what happens to one frame on [src -> dst]:
     each returned float is an extra delay for one delivered copy
     (empty list = dropped). *)
  let transmit_frame t ~src ~dst ch frame ~deliver =
    let base = prop_delay t ~src ~dst in
    List.iter
      (fun extra ->
        if extra < 0.0 then invalid_arg "Harness: channel produced a negative delay";
        ignore (Engine.schedule t.engine ~delay:(base +. extra) (fun () -> deliver frame)))
      (ch ~src ~dst ~now:(Engine.now t.engine))

  (* --- Message delivery, transport, and hello machinery ----------------- *)

  (* Hand one router-level message to its destination and recursively
     dispatch the replies. *)
  let rec deliver_payload t ~src ~dst payload =
    let replies = R.handle_msg t.routers.(dst) ~from_:src payload in
    t.observer t;
    dispatch t ~from_:dst replies

  and dispatch t ~from_ outputs =
    List.iter
      (fun (dst, msg) ->
        if send_ok t ~src:from_ ~dst then
          if transport_engaged t then send_data t ~src:from_ ~dst msg
          else begin
            (* Lossless, in-order delivery with the link's propagation
               delay — the paper's assumed control channel. *)
            let ep = current_epoch t (from_, dst) in
            let delay = prop_delay t ~src:from_ ~dst in
            ignore
              (Engine.schedule t.engine ~delay (fun () ->
                   if link_is_up t ~src:from_ ~dst && current_epoch t (from_, dst) = ep
                   then deliver_payload t ~src:from_ ~dst msg))
          end)
      outputs

  and send_data t ~src ~dst payload =
    let ch = channel_fn t in
    let tx = get_tx t (src, dst) in
    let tseq = tx.next_tseq in
    tx.next_tseq <- tseq + 1;
    tx.unacked <- tx.unacked @ [ (tseq, payload) ];
    let ep = current_epoch t (src, dst) in
    transmit_frame t ~src ~dst ch
      (Data { ep; tseq; payload })
      ~deliver:(receive_frame t ~src ~dst);
    arm_timer t ~src ~dst tx

  and arm_timer t ~src ~dst tx =
    if tx.timer = None then begin
      (* Jittered backoff: without the random factor every transport
         stream armed by the same outage expires in lockstep and the
         heal instant sees a synchronized retransmission storm. *)
      let delay = tx.rto *. (1.0 +. Rng.uniform t.rng ~lo:0.0 ~hi:0.5) in
      tx.timer <-
        Some (Engine.schedule t.engine ~delay (fun () -> retransmit t ~src ~dst))
    end

  and retransmit t ~src ~dst =
    match Hashtbl.find_opt t.tx (src, dst) with
    | None -> ()
    | Some tx ->
      tx.timer <- None;
      if send_ok t ~src ~dst && tx.unacked <> [] then begin
        let ch = channel_fn t in
        let ep = current_epoch t (src, dst) in
        List.iter
          (fun (tseq, payload) ->
            t.retransmissions <- t.retransmissions + 1;
            transmit_frame t ~src ~dst ch
              (Data { ep; tseq; payload })
              ~deliver:(receive_frame t ~src ~dst))
          tx.unacked;
        tx.rto <- Float.min (tx.rto *. 2.0) t.rto_max;
        arm_timer t ~src ~dst tx
      end

  and send_tack t ~data_src ~data_dst =
    (* Cumulative ACK for direction [data_src -> data_dst], travelling
       the reverse link and subject to its channel faults. *)
    if send_ok t ~src:data_dst ~dst:data_src then begin
      let ch = channel_fn t in
      let rxs = get_rx t (data_src, data_dst) in
      let ep = current_epoch t (data_src, data_dst) in
      t.transport_acks <- t.transport_acks + 1;
      transmit_frame t ~src:data_dst ~dst:data_src ch
        (Tack { ep; upto = rxs.expected - 1 })
        ~deliver:(receive_frame t ~src:data_dst ~dst:data_src)
    end

  and receive_frame t ~src ~dst frame =
    (* Arrival of one frame that travelled [src -> dst]. *)
    if link_is_up t ~src ~dst then
      match frame with
      | Data { ep; tseq; payload } ->
        (* Under hello detection, data is accepted only once this
           endpoint's own adjacency is Full: a not-yet-promoted
           receiver stays silent and the sender's retransmissions
           deliver the stream as soon as promotion happens. *)
        if ep = current_epoch t (src, dst) && recv_ok t ~src ~dst then begin
          let rxs = get_rx t (src, dst) in
          if rxs.ep <> ep then begin
            (* The sender reset this stream (one-sided adjacency loss
               we never saw): restart reception from scratch. *)
            rxs.ep <- ep;
            rxs.expected <- 0;
            Hashtbl.reset rxs.held
          end;
          if tseq = rxs.expected then begin
            rxs.expected <- rxs.expected + 1;
            deliver_payload t ~src ~dst payload;
            (* Drain any buffered successors, in order. *)
            let rec drain () =
              match Hashtbl.find_opt rxs.held rxs.expected with
              | Some next ->
                Hashtbl.remove rxs.held rxs.expected;
                rxs.expected <- rxs.expected + 1;
                deliver_payload t ~src ~dst next;
                drain ()
              | None -> ()
            in
            drain ();
            send_tack t ~data_src:src ~data_dst:dst
          end
          else if tseq > rxs.expected then begin
            Hashtbl.replace rxs.held tseq payload;
            send_tack t ~data_src:src ~data_dst:dst
          end
          else (* duplicate of an already-delivered frame: re-ACK *)
            send_tack t ~data_src:src ~data_dst:dst
        end
      | Tack { ep; upto } ->
        (* Acknowledges data we sent on [dst -> src]. *)
        if ep = current_epoch t (dst, src) then (
          match Hashtbl.find_opt t.tx (dst, src) with
          | None -> ()
          | Some tx ->
            tx.unacked <- List.filter (fun (s, _) -> s > upto) tx.unacked;
            if tx.unacked = [] then begin
              (match tx.timer with
              | Some id ->
                Engine.cancel t.engine id;
                tx.timer <- None
              | None -> ());
              tx.rto <- t.rto_initial
            end)

  (* --- Logical (routing-visible) adjacency transitions ----------------- *)

  and logical_up t ~node ~nbr =
    record t (Adj_up { node; nbr });
    (* Link-up re-announces the cost out of band, so any cost-change
       damper for this direction restarts from a clean slate (stale
       armed timers die on the physical-identity check). *)
    Hashtbl.remove t.triggers (node, nbr);
    let cost =
      match Hashtbl.find_opt t.cost_now (node, nbr) with
      | Some c -> c
      | None -> invalid_arg "Harness: adjacency formed on a never-initialised link"
    in
    let outputs = R.handle_link_up t.routers.(node) ~nbr ~cost in
    (* Re-forming the adjacency proves the peer went through its own
       teardown (the session handshake forces it), so any ghost it left
       behind is released here rather than waiting out the timer. *)
    let confirm = R.confirm_link_down t.routers.(node) ~nbr in
    t.observer t;
    dispatch t ~from_:node (outputs @ confirm)

  and logical_down t ~node ~nbr ~cause =
    record t (Adj_down { node; nbr; cause });
    (* Poison our session so the peer must reset too before the
       adjacency can re-form, then kill both directions' in-flight
       frames and this endpoint's transport state. *)
    bump_session t (node, nbr);
    bump_epoch t (node, nbr);
    bump_epoch t (nbr, node);
    reset_tx t (node, nbr);
    reset_rx t (nbr, node);
    (* The teardown is *inferred*: the peer may still be up and routing
       on its old view of us, so the router keeps [nbr] as a ghost
       (feasible distances pinned) until the adjacency re-forms or the
       timer below declares the peer informed. 2x the dead interval is
       provably enough: from the moment we bumped our session, every
       hello the peer receives from us is poisoned (it tears down on
       first delivery), and total silence trips its own dead interval. *)
    let outputs = R.handle_link_down_unconfirmed t.routers.(node) ~nbr in
    let sess = session_of t (node, nbr) in
    let release () =
      if t.alive.(node) && session_of t (node, nbr) = sess then begin
        let outputs = R.confirm_link_down t.routers.(node) ~nbr in
        t.observer t;
        dispatch t ~from_:node outputs
      end
    in
    (* A normal (not aux) event: an unreleased ghost pins feasible
       distances, which is unfinished reconvergence business. The
       session guard keeps a stale timer from releasing a newer ghost
       (sessions bump at every teardown, including crashes). *)
    ignore
      (Engine.schedule t.engine
         ~delay:(2.0 *. (hello_params t).Hello.dead_interval)
         release);
    t.observer t;
    dispatch t ~from_:node outputs

  and apply_actions t ~node ~nbr a actions =
    List.iter
      (function
        | Hello.Report_up -> logical_up t ~node ~nbr
        | Hello.Report_down cause ->
          logical_down t ~node ~nbr ~cause:(cause :> down_cause)
        | Hello.Arm_dead time ->
          schedule_aux_at t ~time (fun () -> dead_check t ~node ~nbr a)
        | Hello.Arm_reuse delay ->
          (* Deliberately a normal event: a suppressed adjacency is
             unfinished business, so the hold-down counts toward
             reconvergence time instead of being invisible to it. *)
          ignore
            (Engine.schedule t.engine ~delay (fun () -> reuse_check t ~node ~nbr a)))
      actions

  (* Timers survive crashes of the node that owns them; firing on a
     detector that was wiped and rebuilt must be a no-op, hence the
     physical-identity guard. *)
  and dead_check t ~node ~nbr a =
    match Hashtbl.find_opt t.adj (node, nbr) with
    | Some a' when a' == a && t.alive.(node) ->
      apply_actions t ~node ~nbr a (Hello.on_dead_check a ~now:(Engine.now t.engine))
    | Some _ | None -> ()

  and reuse_check t ~node ~nbr a =
    match Hashtbl.find_opt t.adj (node, nbr) with
    | Some a' when a' == a && t.alive.(node) ->
      apply_actions t ~node ~nbr a (Hello.on_reuse_check a ~now:(Engine.now t.engine))
    | Some _ | None -> ()

  and receive_hello t ~src ~dst ~gen ~heard_gen =
    let a = get_adj t (dst, src) in
    let heard_me = heard_gen = session_of t (dst, src) in
    apply_actions t ~node:dst ~nbr:src
      a
      (Hello.on_hello a ~now:(Engine.now t.engine) ~gen ~heard_me)

  and send_hello t ~src ~dst =
    t.hellos_sent <- t.hellos_sent + 1;
    (* Frame contents are fixed at transmission time. [heard_gen] is
       the neighbor session we currently hear (-1 when none): the
       receiver compares it with its own current session for the
       two-way check, which also propagates one-sided teardowns. *)
    let gen = session_of t (src, dst) in
    let heard_gen =
      match Hashtbl.find_opt t.adj (src, dst) with
      | Some a -> Hello.heard_gen a
      | None -> -1
    in
    let base = prop_delay t ~src ~dst in
    List.iter
      (fun extra ->
        if extra < 0.0 then invalid_arg "Harness: channel produced a negative delay";
        schedule_aux t ~delay:(base +. extra) (fun () ->
            if link_is_up t ~src ~dst && t.alive.(dst) then
              receive_hello t ~src ~dst ~gen ~heard_gen))
      (channel_fn t ~src ~dst ~now:(Engine.now t.engine))

  and hello_tick t ~src ~dst =
    if link_is_up t ~src ~dst && t.alive.(src) then begin
      send_hello t ~src ~dst;
      let p = hello_params t in
      let lo = p.Hello.hello_interval *. (1.0 -. (p.Hello.jitter /. 2.0)) in
      let hi = p.Hello.hello_interval *. (1.0 +. (p.Hello.jitter /. 2.0)) in
      schedule_aux t ~delay:(Rng.uniform t.rng ~lo ~hi) (fun () ->
          hello_tick t ~src ~dst)
    end
    else
      (* The loop dies with the physical link; [apply_link_up] starts a
         fresh one (the [hello_on] flag prevents doubling up). *)
      Hashtbl.remove t.hello_on (src, dst)

  and start_hello t ~src ~dst =
    if not (Hashtbl.mem t.hello_on (src, dst)) then begin
      Hashtbl.replace t.hello_on (src, dst) ();
      let p = hello_params t in
      (* First hello at a random offset so the links of a freshly
         healed partition do not all speak at once. *)
      schedule_aux t ~delay:(Rng.uniform t.rng ~lo:0.0 ~hi:p.Hello.hello_interval)
        (fun () -> hello_tick t ~src ~dst)
    end

  (* --- Physical link events --------------------------------------------- *)

  let apply_link_up t ~src ~dst ~cost =
    if t.alive.(src) && t.alive.(dst) && not (link_is_up t ~src ~dst) then begin
      Hashtbl.replace t.up (src, dst) ();
      Hashtbl.replace t.cost_now (src, dst) cost;
      record t (Phys_up { src; dst });
      match t.detection with
      | Oracle ->
        record t (Adj_up { node = src; nbr = dst });
        Hashtbl.remove t.triggers (src, dst);
        let outputs = R.handle_link_up t.routers.(src) ~nbr:dst ~cost in
        t.observer t;
        dispatch t ~from_:src outputs
      | Hello _ ->
        t.observer t;
        start_hello t ~src ~dst
    end

  let apply_link_down t ~src ~dst =
    if link_is_up t ~src ~dst then begin
      Hashtbl.remove t.up (src, dst);
      record t (Phys_down { src; dst });
      match t.detection with
      | Oracle ->
        record t (Adj_down { node = src; nbr = dst; cause = `Oracle });
        bump_epoch t (src, dst);
        reset_transport t (src, dst);
        let outputs = R.handle_link_down t.routers.(src) ~nbr:dst in
        t.observer t;
        dispatch t ~from_:src outputs
      | Hello _ ->
        (* Nobody is told: the loss must be *inferred*. In-flight
           frames die at arrival (the link is down), the hello loop
           stops itself, and the peer's dead interval or one-way check
           does the routing-visible teardown. *)
        t.observer t
    end

  (* Timers survive link flaps and damping reconfiguration; firing on a
     trigger that was discarded must be a no-op, hence the
     physical-identity guard (same device as [dead_check]). *)
  let rec trigger_check t ~src ~dst tr =
    match Hashtbl.find_opt t.triggers (src, dst) with
    | Some tr' when tr' == tr ->
      if t.alive.(src) && link_is_up t ~src ~dst && send_ok t ~src ~dst then
        run_trigger_actions t ~src ~dst tr
          (Cost_trigger.on_check tr ~now:(Engine.now t.engine))
      else
        (* The adjacency died while an update was pending; link-up will
           re-announce the cost, so the damper state is moot. *)
        Hashtbl.remove t.triggers (src, dst)
    | Some _ | None -> ()

  and run_trigger_actions t ~src ~dst tr actions =
    List.iter
      (function
        | Cost_trigger.Apply c ->
          t.cost_updates_applied <- t.cost_updates_applied + 1;
          let outputs = R.handle_link_cost t.routers.(src) ~nbr:dst ~cost:c in
          t.observer t;
          dispatch t ~from_:src outputs
        | Cost_trigger.Arm delay ->
          (* Deliberately a normal event: a pending cost update is
             unfinished reconvergence business, so quiescence waits
             for it. *)
          ignore
            (Engine.schedule t.engine ~delay (fun () ->
                 trigger_check t ~src ~dst tr)))
      actions

  let apply_link_cost t ~src ~dst ~cost =
    if link_is_up t ~src ~dst then begin
      let prev =
        match Hashtbl.find_opt t.cost_now (src, dst) with
        | Some c -> c
        | None -> cost
      in
      Hashtbl.replace t.cost_now (src, dst) cost;
      if send_ok t ~src ~dst then begin
        t.cost_updates_offered <- t.cost_updates_offered + 1;
        match t.cost_damping with
        | None ->
          t.cost_updates_applied <- t.cost_updates_applied + 1;
          let outputs = R.handle_link_cost t.routers.(src) ~nbr:dst ~cost in
          t.observer t;
          dispatch t ~from_:src outputs
        | Some params ->
          let tr =
            match Hashtbl.find_opt t.triggers (src, dst) with
            | Some tr -> tr
            | None ->
              (* The routing process last heard [prev] (at link-up or
                 through an earlier applied update). *)
              let tr =
                Cost_trigger.create ~params ~initial:prev
                  ~now:(Engine.now t.engine) ()
              in
              Hashtbl.replace t.triggers (src, dst) tr;
              tr
          in
          run_trigger_actions t ~src ~dst tr
            (Cost_trigger.offer tr ~now:(Engine.now t.engine) ~cost)
      end
    end

  (* --- Node crash / restart -------------------------------------------- *)

  let apply_node_crash t node =
    if t.alive.(node) then begin
      t.alive.(node) <- false;
      let nbrs = Graph.neighbors t.topo node in
      (match t.detection with
      | Oracle ->
        (* Take every adjacent direction down first so no handler can
           reach the dying router, then notify the surviving endpoints
           (they detect the loss as link-down), then wipe the router. *)
        let notify =
          List.filter
            (fun k ->
              let was_up = link_is_up t ~src:k ~dst:node in
              List.iter
                (fun key ->
                  if Hashtbl.mem t.up key then begin
                    Hashtbl.remove t.up key;
                    record t (Phys_down { src = fst key; dst = snd key });
                    bump_epoch t key;
                    reset_transport t key
                  end)
                [ (node, k); (k, node) ];
              was_up && t.alive.(k))
            nbrs
        in
        List.iter
          (fun k ->
            record t (Adj_down { node = k; nbr = node; cause = `Oracle });
            let outputs = R.handle_link_down t.routers.(k) ~nbr:node in
            t.observer t;
            dispatch t ~from_:k outputs)
          notify
      | Hello _ ->
        (* Silence is the only signal: adjacent directions go
           physically down, the dead router's detectors and transport
           state vanish, and each neighbor's dead interval discovers
           the loss on its own. *)
        List.iter
          (fun k ->
            List.iter
              (fun key ->
                if Hashtbl.mem t.up key then begin
                  Hashtbl.remove t.up key;
                  record t (Phys_down { src = fst key; dst = snd key })
                end)
              [ (node, k); (k, node) ];
            Hashtbl.remove t.adj (node, k);
            bump_session t (node, k);
            reset_tx t (node, k);
            reset_rx t (k, node))
          nbrs;
        t.observer t);
      t.crashed_active_phases <-
        t.crashed_active_phases + R.active_phases t.routers.(node);
      t.routers.(node) <- t.make_router ~id:node ~n:(Graph.node_count t.topo);
      t.observer t
    end

  let apply_node_restart t node =
    if not t.alive.(node) then begin
      t.alive.(node) <- true;
      t.routers.(node) <- t.make_router ~id:node ~n:(Graph.node_count t.topo);
      List.iter
        (fun k ->
          if t.alive.(k) then
            List.iter
              (fun (s, d) ->
                if not (Hashtbl.mem t.admin_down (s, d)) then
                  let cost =
                    match Hashtbl.find_opt t.cost_now (s, d) with
                    | Some c -> c
                    | None -> invalid_arg "Harness: restart of a never-initialised link"
                  in
                  apply_link_up t ~src:s ~dst:d ~cost)
              [ (node, k); (k, node) ])
        (Graph.neighbors t.topo node)
    end

  (* --- Construction and scheduling -------------------------------------- *)

  let create ?make_router ?(detection = Oracle) ?(seed = 1)
      ?(observer = fun _ -> ()) ~topo ~cost () =
    (match detection with Hello p -> Hello.validate p | Oracle -> ());
    let n = Graph.node_count topo in
    let make_router =
      match make_router with Some f -> f | None -> fun ~id ~n -> R.create ~id ~n
    in
    let t =
      {
        topo;
        engine = Engine.create ();
        routers = Array.init n (fun id -> make_router ~id ~n);
        make_router;
        detection;
        rng = Rng.create ~seed;
        up = Hashtbl.create (Graph.link_count topo);
        epoch = Hashtbl.create (Graph.link_count topo);
        cost_now = Hashtbl.create (Graph.link_count topo);
        admin_down = Hashtbl.create 8;
        alive = Array.make n true;
        session = Hashtbl.create (Graph.link_count topo);
        adj = Hashtbl.create (Graph.link_count topo);
        hello_on = Hashtbl.create (Graph.link_count topo);
        aux_pending = 0;
        trace_rev = [];
        channel = None;
        cost_damping = None;
        triggers = Hashtbl.create (Graph.link_count topo);
        cost_updates_offered = 0;
        cost_updates_applied = 0;
        tx = Hashtbl.create 16;
        rx = Hashtbl.create 16;
        rto_initial = 0.05;
        rto_max = 2.0;
        retransmissions = 0;
        transport_acks = 0;
        hellos_sent = 0;
        crashed_active_phases = 0;
        observer;
      }
    in
    (* Bring every directed link up at time 0. Both directions are
       scheduled before any message can be delivered (delays > 0 in
       practice; equal-time events run in scheduling order otherwise). *)
    List.iter
      (fun l ->
        ignore
          (Engine.schedule t.engine ~delay:0.0 (fun () ->
               apply_link_up t ~src:l.Graph.src ~dst:l.Graph.dst ~cost:(cost l))))
      (Graph.links topo);
    t

  let set_channel t ?(rto_initial = 0.05) ?(rto_max = 2.0) ch =
    if rto_initial <= 0.0 || rto_max < rto_initial then
      invalid_arg "Harness.set_channel: need 0 < rto_initial <= rto_max";
    t.rto_initial <- rto_initial;
    t.rto_max <- rto_max;
    t.channel <- Some ch

  let set_cost_damping t params =
    Cost_trigger.validate params;
    t.cost_damping <- Some params

  let require_duplex t ~fn ~a ~b =
    if a = b then invalid_arg (Printf.sprintf "%s: %d-%d is a self-loop" fn a b);
    let n = Graph.node_count t.topo in
    if a < 0 || a >= n || b < 0 || b >= n then
      invalid_arg (Printf.sprintf "%s: node out of range in %d-%d" fn a b);
    if Graph.link t.topo ~src:a ~dst:b = None || Graph.link t.topo ~src:b ~dst:a = None
    then
      invalid_arg
        (Printf.sprintf "%s: no duplex link %d-%d in the topology" fn a b)

  let schedule_link_cost t ~at ~src ~dst ~cost =
    ignore
      (Engine.schedule_at t.engine ~time:at (fun () -> apply_link_cost t ~src ~dst ~cost))

  let schedule_fail_duplex t ~at ~a ~b =
    require_duplex t ~fn:"Harness.schedule_fail_duplex" ~a ~b;
    ignore
      (Engine.schedule_at t.engine ~time:at (fun () ->
           Hashtbl.replace t.admin_down (a, b) ();
           Hashtbl.replace t.admin_down (b, a) ();
           apply_link_down t ~src:a ~dst:b;
           apply_link_down t ~src:b ~dst:a))

  let schedule_restore_duplex t ~at ~a ~b ~cost =
    require_duplex t ~fn:"Harness.schedule_restore_duplex" ~a ~b;
    ignore
      (Engine.schedule_at t.engine ~time:at (fun () ->
           Hashtbl.remove t.admin_down (a, b);
           Hashtbl.remove t.admin_down (b, a);
           (* Record the cost even when an endpoint is down so a later
              restart brings the link up at the restored value. *)
           Hashtbl.replace t.cost_now (a, b) cost;
           Hashtbl.replace t.cost_now (b, a) cost;
           apply_link_up t ~src:a ~dst:b ~cost;
           apply_link_up t ~src:b ~dst:a ~cost))

  let require_node t ~fn node =
    if node < 0 || node >= Graph.node_count t.topo then
      invalid_arg (Printf.sprintf "%s: node %d out of range" fn node)

  let schedule_node_crash t ~at ~node =
    require_node t ~fn:"Harness.schedule_node_crash" node;
    ignore (Engine.schedule_at t.engine ~time:at (fun () -> apply_node_crash t node))

  let schedule_node_restart t ~at ~node =
    require_node t ~fn:"Harness.schedule_node_restart" node;
    ignore (Engine.schedule_at t.engine ~time:at (fun () -> apply_node_restart t node))

  let partition_cut t ~group =
    let n = Graph.node_count t.topo in
    let inside = Array.make n false in
    List.iter
      (fun v ->
        require_node t ~fn:"Harness.schedule_partition" v;
        inside.(v) <- true)
      group;
    List.filter
      (fun (l : Graph.link) -> inside.(l.src) && not inside.(l.dst))
      (Graph.links t.topo)

  let schedule_partition t ~at ~heal_at ~group =
    if heal_at < at then invalid_arg "Harness.schedule_partition: heal_at < at";
    let cut = partition_cut t ~group in
    ignore
      (Engine.schedule_at t.engine ~time:at (fun () ->
           List.iter
             (fun (l : Graph.link) ->
               Hashtbl.replace t.admin_down (l.src, l.dst) ();
               Hashtbl.replace t.admin_down (l.dst, l.src) ();
               apply_link_down t ~src:l.src ~dst:l.dst;
               apply_link_down t ~src:l.dst ~dst:l.src)
             cut));
    ignore
      (Engine.schedule_at t.engine ~time:heal_at (fun () ->
           List.iter
             (fun (l : Graph.link) ->
               List.iter
                 (fun (s, d) ->
                   Hashtbl.remove t.admin_down (s, d);
                   match Hashtbl.find_opt t.cost_now (s, d) with
                   | Some cost -> apply_link_up t ~src:s ~dst:d ~cost
                   | None -> ())
                 [ (l.src, l.dst); (l.dst, l.src) ])
             cut))

  let run ?until t = Engine.run ?until t.engine

  (* Under hello detection, "every adjacency agrees with the physical
     link state" is part of quiescence: an aux event that will promote
     or demote an adjacency (and so wake the routers) is still pending
     exactly when some link disagrees. *)
  let adj_consistent t =
    match t.detection with
    | Oracle -> true
    | Hello _ ->
      List.for_all
        (fun (l : Graph.link) ->
          let expected =
            if link_is_up t ~src:l.src ~dst:l.dst then Hello.Full else Hello.Down
          in
          adj_state t ~node:l.src ~nbr:l.dst = expected)
        (Graph.links t.topo)

  let quiescent t =
    Engine.pending t.engine = t.aux_pending
    && Array.for_all R.is_passive t.routers
    && adj_consistent t

  let total_messages t =
    Array.fold_left (fun acc r -> acc + R.messages_sent r) t.retransmissions t.routers

  let total_active_phases t =
    Array.fold_left
      (fun acc r -> acc + R.active_phases r)
      t.crashed_active_phases t.routers

  let successor_sets t ~dst = fun node -> R.successors t.routers.(node) ~dst

  let check_loop_free t =
    let n = Graph.node_count t.topo in
    List.for_all
      (fun dst ->
        Lfi.successor_graph_acyclic ~n
          ~successors:(fun ~node -> R.successors t.routers.(node) ~dst)
          ~dst)
      (Graph.nodes t.topo)

  let check_lfi t =
    let n = Graph.node_count t.topo in
    List.for_all
      (fun dst ->
        Lfi.lfi_conditions_hold ~n
          ~neighbors:(fun node -> R.up_neighbors t.routers.(node))
          ~feasible:(fun ~node ~dst -> R.feasible_distance t.routers.(node) ~dst)
          ~reported:(fun ~holder ~about ~dst ->
            R.neighbor_distance t.routers.(holder) ~nbr:about ~dst)
          ~dst)
      (Graph.nodes t.topo)
end

module Dv_network = Make (Dv_router)
