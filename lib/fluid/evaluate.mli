(** Delay evaluation of a routing configuration in the fluid model.

    Computes the paper's objective D_T (Eq. 3), the network-average
    per-packet delay, per-flow expected delays (what Figures 9-12
    plot), and the marginal link costs / marginal distances used by the
    routing algorithms (Eqs. 4-5). *)

type model
(** Per-link M/M/1 delay models for one topology, kept by link slot
    ({!Params.layout}'s {!Mdr_topology.Graph.out_csr} order). Sums over
    links run in the links' insertion order, as they always have; that
    order is worked out on first use and kept. Building a model is
    O(links). *)

val model : ?rho_max:float -> Mdr_topology.Graph.t -> packet_size:float -> model
(** [packet_size] is the mean packet size in bits used to convert link
    capacities to packets/s. *)

val packet_size : model -> float

val delay_of_link : model -> src:int -> dst:int -> Delay.t

val delay_of_slot : model -> int -> Delay.t
(** The delay model of the link in slot [e]. *)

val total_cost : model -> Flows.t -> float
(** D_T = sum over links of D_ik(f_ik): total expected delay per
    message times total message arrival rate. *)

val average_delay : model -> Flows.t -> Traffic.t -> float
(** D_T / total input rate: expected network delay per packet,
    seconds (Little's law). *)

val link_cost : model -> Flows.t -> src:int -> dst:int -> float
(** Marginal delay D'_ik(f_ik) — the link cost l_ik. *)

val link_costs : ?into:float array -> model -> Flows.t -> float array
(** Every link's marginal delay D'(f), by link slot. [into], when
    given, is overwritten and returned. *)

val saturated_links : model -> Flows.t -> (int * int) list
(** Directed links whose flow lies beyond their delay model's knee
    ([Delay.saturated]): costs are the convex extension there, and the
    link is overloaded. In link insertion order. *)

val costs_finite : model -> Flows.t -> bool
(** Audit of the saturation-safe contract: every link flow is finite
    and non-negative, and every link's cost and marginal cost are
    finite with [cost >= 0] and [marginal > 0]. Holds for any flow
    assignment produced by the fluid pipeline. *)

val per_flow_delays : model -> Params.t -> Flows.t -> Traffic.t -> (Traffic.flow * float) list
(** Expected end-to-end delay of each input flow under the current
    routing: d_dst(i) = sum_k phi_{i,dst,k} (sojourn_ik + d_dst(k)).
    Order matches [Traffic.flows]. *)

val expected_delay : model -> Params.t -> Flows.t -> src:int -> dst:int -> float
(** Expected delay from one router to a destination; infinite when
    (src, dst) is unrouted. *)

val marginal_distances :
  ?into:float array -> model -> Params.t -> Flows.t -> dst:int -> float array
(** The marginal distances dD_T/dr_i(dst) of every router for one
    destination (Eq. 4): delta_i = sum_k phi_ik (l_ik + delta_k).
    Unrouted routers get [infinity]. [into], when given, is fully
    overwritten and returned instead of a fresh array (length >= node
    count) — iteration loops pass one reusable buffer so the per-call
    allocation disappears. *)

val downstream_into :
  Params.t -> dst:int -> order:int array -> link_values:float array -> float array -> unit
(** [downstream_into params ~dst ~order ~link_values values] solves
    [v_i = sum_k phi_ik (link_values.(slot ik) + v_k)] for every router
    in reverse [order] (as written by {!Flows.topological_order_into}),
    with [v_dst = 0] and [infinity] for unrouted routers, into
    [values.(0 .. n-1)]. With {!link_costs} it gives
    {!marginal_distances} with no allocation. *)
