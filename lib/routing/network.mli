(** Control-plane simulation harness: one {!Router} per topology node,
    exchanging LSUs over the topology's links with their propagation
    delays.

    This is how PDA/MPDA are exercised *as protocols*: link cost
    changes, failures, channel faults, node crashes and partitions are
    injected as timed events, messages travel with real latencies, and
    an observation hook fires after every processed event so tests can
    assert instantaneous loop-freedom (Theorem 3) and eventual
    convergence (Theorems 2 and 4).

    All machinery is shared with the distance-vector network through
    {!Harness.Make}; see {!Harness} for the fault-model semantics
    (reliable transport over lossy channels, crash/restart, cut-set
    partitions). *)

type t

val create :
  ?mode:Router.mode ->
  ?detection:Harness.detection ->
  ?seed:int ->
  ?observer:(t -> unit) ->
  topo:Mdr_topology.Graph.t ->
  cost:(Mdr_topology.Graph.link -> float) ->
  unit ->
  t
(** Builds the routers and schedules both directions of every link to
    come up at time 0 (with initial costs from [cost]). [mode] defaults
    to [Mpda], [detection] to [Harness.Oracle] (see
    {!Harness.Make.create} for the hello alternative and [seed]).
    [observer] runs after every router event — keep it cheap. *)

val engine : t -> Mdr_eventsim.Engine.t
val topology : t -> Mdr_topology.Graph.t
val router : t -> int -> Router.t

val set_channel :
  t -> ?rto_initial:float -> ?rto_max:float -> Harness.channel -> unit
(** Install a control-channel fault model and engage the reliable
    transport layer (sequencing, cumulative ACKs, capped exponential
    retransmission); see {!Harness.Make.set_channel}. *)

val set_cost_damping : t -> Cost_trigger.params -> unit
(** Put a {!Cost_trigger} damper in front of every directed link's cost
    updates: significance threshold, hold-down, and cost-flap
    suppression; see {!Harness.Make.set_cost_damping}. *)

val cost_updates_offered : t -> int
val cost_updates_applied : t -> int

val schedule_link_cost : t -> at:float -> src:int -> dst:int -> cost:float -> unit
(** Change one directed link's cost at simulated time [at]. *)

val schedule_fail_duplex : t -> at:float -> a:int -> b:int -> unit
(** Fail both directions between [a] and [b]. In-flight messages on
    the failed link are lost. Failing an already-down link is a no-op.
    @raise Invalid_argument immediately if the topology has no duplex
    link [a]-[b]. *)

val schedule_restore_duplex : t -> at:float -> a:int -> b:int -> cost:float -> unit
(** Restore both directions. Restoring an up link is a no-op.
    @raise Invalid_argument immediately if the topology has no duplex
    link [a]-[b]. *)

val schedule_node_crash : t -> at:float -> node:int -> unit
(** Crash a router: all its protocol state is lost and its neighbors
    observe link-down; see {!Harness.Make.schedule_node_crash}. *)

val schedule_node_restart : t -> at:float -> node:int -> unit
(** Reboot a crashed router with fresh state; adjacent links to live
    neighbors come back up at their last applied costs. *)

val schedule_partition : t -> at:float -> heal_at:float -> group:int list -> unit
(** Fail every link crossing the cut between [group] and the rest of
    the network at [at]; heal the cut at [heal_at]. *)

val link_is_up : t -> src:int -> dst:int -> bool
val node_is_up : t -> int -> bool

val detection : t -> Harness.detection

val adj_is_up : t -> src:int -> dst:int -> bool
(** Whether [src]'s router currently considers the adjacency usable
    (equals {!link_is_up} under oracle detection). *)

val adj_state : t -> node:int -> nbr:int -> Hello.state
val adj_suppressed : t -> node:int -> nbr:int -> bool
val adj_flaps : t -> node:int -> nbr:int -> int

val trace : t -> (float * Harness.trace_event) list
(** Timestamped physical and adjacency transitions, oldest first. *)

val hellos_sent : t -> int

val total_active_phases : t -> int
(** ACTIVE (diffusing-computation) phases entered across all routers,
    crashes included. *)

val run : ?until:float -> t -> unit
(** Process events; see {!Mdr_eventsim.Engine.run}. *)

val quiescent : t -> bool
(** No pending events and every router PASSIVE. *)

val total_messages : t -> int
(** LSUs sent by all routers plus transport retransmissions. *)

val retransmissions : t -> int
val transport_acks : t -> int

val successor_sets : t -> dst:int -> (int -> int list)
(** Per-node successor sets for one destination, straight from the
    routers. *)

val check_loop_free : t -> bool
(** Successor graphs of all destinations are acyclic right now. *)

val check_lfi : t -> bool
(** The LFI conditions (Eq. 16) hold right now, using each router's
    neighbor tables as the "reported" values. *)
