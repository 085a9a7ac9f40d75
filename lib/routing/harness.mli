(** Protocol-agnostic control-plane harness with fault injection and
    failure detection.

    [Make] runs any router machine implementing {!ROUTER} — the
    link-state MPDA via {!Network}, or the distance-vector
    {!Dv_router} via {!Dv_network} below — over a topology's links
    with their propagation delays, so both LFI instantiations face
    identical event streams in tests and benches.

    Beyond the paper's clean failure model (duplex link fail/restore
    with reliable in-order delivery), the harness can subject the
    control plane to channel faults, node crashes and partitions:

    - {!val-Make.set_channel} installs a per-frame fault model (drops,
      duplicates, jitter, blackouts — see [Mdr_faults.Channel]) and
      simultaneously engages a reliable transport: every router-level
      message is sequenced, cumulatively ACKed, retransmitted with
      jittered exponential backoff (capped), de-duplicated and released
      in order, because MPDA/DV correctness assumes reliable in-order
      control channels. Retransmissions count toward
      {!val-Make.total_messages}.
    - {!val-Make.schedule_node_crash} kills a router (all protocol
      state lost), and {!val-Make.schedule_node_restart} reboots it
      from scratch.
    - {!val-Make.schedule_partition} fails a cut set and later heals
      it.

    {2 Failure detection}

    The paper assumes an oracle: a failed link is announced to both
    endpoints instantly. [create ~detection:(Hello params)] replaces
    the oracle with the {!Hello} adjacency machine: every physically-up
    directed link carries jittered periodic hellos, link-down and
    node-crash are *inferred* (dead interval, one-way reception,
    changed session number), and flap damping can hold an oscillating
    adjacency down. Each direction's hellos carry a session number
    that the harness bumps at every routing-visible teardown of that
    direction, so a one-sided teardown always forces the peer through
    its own teardown before the adjacency can re-form — feasible
    distances and transport streams reset on both sides, never just
    one. Under hello detection the reliable transport is
    always engaged (even with no channel model installed) because an
    undetected physical flap silently loses in-flight frames, and the
    physical/logical distinction becomes observable:
    {!val-Make.link_is_up} answers for the wire while
    {!val-Make.adj_is_up} answers for what the routing process was
    told. Every transition is timestamped in {!val-Make.trace} for
    detection-latency and recovery audits. Simulations under hello
    detection run forever (periodic hellos); always pass [~until] to
    {!val-Make.run} or step the engine. *)

module type ROUTER = sig
  type t
  type msg

  val create : id:int -> n:int -> t
  val handle_link_up : t -> nbr:int -> cost:float -> (int * msg) list
  val handle_link_down : t -> nbr:int -> (int * msg) list

  val handle_link_down_unconfirmed : t -> nbr:int -> (int * msg) list
  (** Like [handle_link_down], but the loss was {e inferred} (hello
      detection): the peer may still route on its old view of this
      router, so a loop-free router must not raise feasible distances
      on its account until {!confirm_link_down}. Routers with no such
      notion may alias this to [handle_link_down]. *)

  val confirm_link_down : t -> nbr:int -> (int * msg) list
  (** The harness established that [nbr] no longer routes on its old
      view of this router (it re-handshook, or stayed silent past the
      point where its own detector must have fired). *)

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
  (** PASSIVE -> ACTIVE transitions so far (diffusing computations). *)
end

type channel = src:int -> dst:int -> now:float -> float list
(** A control-channel fault model: called once per transmitted frame,
    it returns one extra delay (seconds, >= 0, added to the link's
    propagation delay) per delivered copy — [[]] drops the frame,
    [[0.]] is faultless delivery, two entries duplicate it. *)

type detection = Oracle | Hello of Hello.params
(** How routers learn about adjacent failures: the paper's instant
    oracle, or inference from periodic hellos (see {!Hello}). *)

type down_cause = [ `Oracle | `Dead | `One_way | `Peer_reset ]
(** Why an adjacency went down: announced by the oracle, dead-interval
    expiry, one-way reception, or a detected peer reset (the neighbor
    rebooted or tore this adjacency down from its side). *)

type trace_event =
  | Phys_down of { src : int; dst : int }  (** the wire failed *)
  | Phys_up of { src : int; dst : int }  (** the wire recovered *)
  | Adj_down of { node : int; nbr : int; cause : down_cause }
      (** [node]'s routing process was told its adjacency to [nbr] is gone *)
  | Adj_up of { node : int; nbr : int }
      (** [node]'s routing process was told its adjacency to [nbr] is usable *)

module Make (R : ROUTER) : sig
  type t

  val create :
    ?make_router:(id:int -> n:int -> R.t) ->
    ?detection:detection ->
    ?seed:int ->
    ?observer:(t -> unit) ->
    topo:Mdr_topology.Graph.t ->
    cost:(Mdr_topology.Graph.link -> float) ->
    unit ->
    t
  (** [make_router] overrides [R.create] (used to fix a router mode);
      it is also used to rebuild routers after a crash. [detection]
      defaults to [Oracle] (the paper's model, and what the
      interleaving model checker assumes). [seed] drives the harness's
      own randomness — hello jitter and retransmission-backoff jitter —
      via SplitMix64, so runs are reproducible. *)

  val engine : t -> Mdr_eventsim.Engine.t
  val topology : t -> Mdr_topology.Graph.t
  val router : t -> int -> R.t
  val detection : t -> detection

  val set_channel : t -> ?rto_initial:float -> ?rto_max:float -> channel -> unit
  (** Install a channel fault model and engage the reliable transport.
      [rto_initial] (default 50 ms) is the first retransmission
      timeout per directed link, doubled on every expiry up to
      [rto_max] (default 2 s) and reset once the peer has ACKed
      everything outstanding; each armed timer is stretched by a
      random factor in [1, 1.5) to avoid synchronized expiry. Install
      before running the network. *)

  val set_cost_damping : t -> Cost_trigger.params -> unit
  (** Put a {!Cost_trigger} damper in front of every directed link's
      [handle_link_cost]: sub-threshold changes are absorbed, updates
      are rate-limited by the hold-down, and a persistently flapping
      cost is suppressed and batched (see {!Cost_trigger}). Dampers are
      reset whenever the adjacency (re-)forms — link-up re-announces
      the cost out of band. A pending (armed) update counts against
      {!quiescent}.
      @raise Invalid_argument on invalid parameters. *)

  val cost_updates_offered : t -> int
  (** Cost changes handed to live adjacencies so far (damped or not). *)

  val cost_updates_applied : t -> int
  (** Cost changes the routing processes actually saw. Equal to
      {!cost_updates_offered} without damping. *)

  val schedule_link_cost : t -> at:float -> src:int -> dst:int -> cost:float -> unit
  (** Change one directed link's cost at simulated time [at]. Under
      hello detection the routing process only hears about it once the
      adjacency is Full; with {!set_cost_damping} the change must also
      clear the damper. *)

  val schedule_fail_duplex : t -> at:float -> a:int -> b:int -> unit
  (** Fail both directions between [a] and [b]. In-flight frames on
      the failed link are lost, and — under the oracle — transport
      state is discarded and both routers are notified; under hello
      detection nobody is told and the peers must infer the loss.
      Failing an already-down link is a no-op.
      @raise Invalid_argument immediately if the topology has no
      duplex link [a]-[b]. *)

  val schedule_restore_duplex : t -> at:float -> a:int -> b:int -> cost:float -> unit
  (** Restore both directions at cost [cost]. Restoring an up link is
      a no-op. @raise Invalid_argument immediately if the topology has
      no duplex link [a]-[b]. *)

  val schedule_node_crash : t -> at:float -> node:int -> unit
  (** Crash [node] at time [at]: every adjacent link goes down, all of
      the node's protocol and transport state is destroyed, and
      in-flight frames to or from it are lost. Under the oracle the
      neighbors are notified instantly; under hello detection their
      dead intervals discover the silence. Crashing a dead node is a
      no-op. *)

  val schedule_node_restart : t -> at:float -> node:int -> unit
  (** Restart a crashed [node] with completely fresh state (the crash
      bumped its adjacency sessions, so under hello detection even
      neighbors that never noticed the silence must re-handshake);
      adjacent links whose other endpoint is alive (and that are not
      separately failed) come back up at their last applied costs.
      Restarting a live node is a no-op. *)

  val schedule_partition : t -> at:float -> heal_at:float -> group:int list -> unit
  (** Fail every link crossing the cut between [group] and the rest of
      the network at [at], and heal the cut at [heal_at]. *)

  val link_is_up : t -> src:int -> dst:int -> bool
  (** Physical state of one directed link. *)

  val node_is_up : t -> int -> bool

  val adj_is_up : t -> src:int -> dst:int -> bool
  (** Whether [src]'s routing process currently considers the
      adjacency to [dst] usable. Equals {!link_is_up} under the
      oracle. *)

  val adj_state : t -> node:int -> nbr:int -> Hello.state
  (** The hello FSM state of [node]'s adjacency to [nbr] (under the
      oracle: [Full] when the link is up, [Down] otherwise). *)

  val adj_suppressed : t -> node:int -> nbr:int -> bool
  (** Whether flap damping is currently holding this adjacency down. *)

  val adj_flaps : t -> node:int -> nbr:int -> int
  (** Detected [Full -> Down] transitions of this adjacency. *)

  val trace : t -> (float * trace_event) list
  (** Timestamped physical and adjacency transitions, oldest first —
      the raw material for detection-latency and recovery audits. *)

  val run : ?until:float -> t -> unit
  (** Process events; see {!Mdr_eventsim.Engine.run}. Under hello
      detection there is always a future hello, so [until] is
      mandatory in practice. *)

  val quiescent : t -> bool
  (** Every router PASSIVE, no protocol-relevant event pending
      (periodic hello machinery is excluded), and — under hello
      detection — every adjacency agreeing with its physical link
      state (Full on up links, Down on down links). *)

  val total_messages : t -> int
  (** Router-level messages sent plus transport retransmissions
      (hellos excluded; see {!hellos_sent}). *)

  val retransmissions : t -> int
  val transport_acks : t -> int

  val hellos_sent : t -> int
  (** Hello frames transmitted (hello detection only). *)

  val total_active_phases : t -> int
  (** ACTIVE (diffusing-computation) phases entered across all
      routers, including ones destroyed by crashes. *)

  val successor_sets : t -> dst:int -> (int -> int list)
  (** Per-node successor sets for one destination, straight from the
      routers. *)

  val check_loop_free : t -> bool
  (** Successor graphs of all destinations are acyclic right now. *)

  val check_lfi : t -> bool
  (** The LFI conditions (Eq. 16) hold right now, using each router's
      neighbor tables as the "reported" values. *)
end

module Dv_network : module type of Make (Dv_router)
(** The distance-vector network: {!Dv_router} under the harness. *)
