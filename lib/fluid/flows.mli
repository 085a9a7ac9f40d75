(** Traffic flows induced by a routing-parameter table.

    Solves the conservation equations (paper Eqs. 1-2): per
    destination, node flow [t_i = r_i + sum over predecessors k of
    t_k * phi_k(i)], then link flow [f_(i,k) = sum over destinations of
    t_i * phi_i(k)]. Because every scheme keeps the successor graph
    acyclic, the system is solved exactly in topological order; a
    damped iterative fallback exists for deliberately cyclic inputs in
    tests.

    Representation: link flows live in a [float array] indexed by the
    table's link slot ({!Params.layout}, the {!Mdr_topology.Graph.out_csr}
    order), and the topological order is written into caller-owned int
    buffers, so a solve does no hashing and builds no lists. *)

exception Cyclic_routing of int
(** Raised with the offending destination when the successor graph has
    a cycle and no fallback was requested. *)

type t = {
  node_flows : float array array;
      (** [node_flows.(i).(j)]: traffic for destination [j] passing
          through router [i] (the paper's t_ij), packets/s. *)
  link_flows : float array;
      (** [link_flows.(e)]: flow on the directed link in slot [e] of
          [layout], packets/s (the paper's f_ik); 0 on unused links. *)
  layout : Params.layout;  (** the slots of the table the flows came from *)
}

val compute : ?iterative_fallback:bool -> Params.t -> Traffic.t -> t
(** [iterative_fallback] (default false) solves cyclic destinations
    with damped fixed-point iteration instead of raising. *)

val link_flow : t -> src:int -> dst:int -> float
(** 0 for a pair that is not a link. *)

val max_utilization : Params.t -> t -> packet_size:float -> float
(** Highest link utilisation in packets/s over the topology's
    capacities converted with [packet_size]. *)

val topological_order_into :
  Params.t -> dst:int -> order:int array -> indegree:int array -> unit
(** Kahn's order of SG_dst written into [order.(0 .. n-1)]: routers
    with no predecessor enter in id order, each popped router releases
    its successors in neighbor-slot order (FIFO). [indegree] is
    scratch; both buffers need length >= the node count.
    @raise Cyclic_routing if SG_dst has a cycle. *)

val topological_order : Params.t -> dst:int -> int list
(** {!topological_order_into} as a fresh list: every router precedes
    its successors toward [dst] (the destination last if reachable).
    @raise Cyclic_routing if SG_dst has a cycle. *)
