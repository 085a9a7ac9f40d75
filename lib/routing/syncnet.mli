(** Synchronous FIFO pump over {!Router} state machines: the network
    behind the route server ([Mdr_server.Server]), [mdrsim scale] and
    the convergence benchmark.

    Unlike {!Network} there is no event engine, no simulated time and
    no fault machinery: messages are delivered one at a time from a
    single global FIFO in deterministic order, so a 1000-router MPDA
    convergence costs exactly its protocol work. Convergence cost is
    reported in messages delivered and the caller's wall clock. *)

type t

val create :
  topo:Mdr_topology.Graph.t -> cost:(Mdr_topology.Graph.link -> float) -> unit -> t
(** One MPDA router per topology node; every adjacency comes up immediately
    (in deterministic link order) with its cost from [cost], and the
    resulting full-table LSUs are queued. Call {!run} to converge. *)

val of_routers : Router.t array -> t
(** A network over existing routers (router [i] at index [i]) with an
    empty queue. Links come up only through {!link_up}. *)

val link_up : t -> src:int -> dst:int -> cost:float -> unit
(** Bring the directed adjacency [src -> dst] up at [cost] in [src]'s
    router and queue its reaction (the full-table LSU); follow with
    {!run}. A duplex link is two calls, one per direction. *)

val link_down : t -> src:int -> dst:int -> unit
(** Take the adjacency [src -> dst] down in [src]'s router and queue
    its reaction; a no-op when it is already down. *)

val run : ?max_messages:int -> t -> bool
(** Deliver queued messages (FIFO) until none remain, or until
    [max_messages] total deliveries have been made across the life of
    [t]. Returns [false] iff the cap stopped delivery early. *)

val quiescent : t -> bool
(** Queue empty and every router PASSIVE. *)

val change_link_cost : t -> src:int -> dst:int -> cost:float -> unit
(** Present a new cost for the directed adjacency [src -> dst] to
    [src]'s router and queue its reaction; follow with {!run}. *)

val check_distances : t -> Topo_table.t -> bool
(** Every router's distance vector equals a from-scratch Dijkstra from
    its id over the reference [table] — exact convergence, Theorem 2
    style. O(n) Dijkstras; intended for n up to a few thousand. *)

val node_count : t -> int
val router : t -> int -> Router.t
val messages_delivered : t -> int

val spf_totals : t -> int * int * int
(** Summed {!Router.spf_stats} over all routers:
    [(full_runs, repairs, fallbacks)]. *)
