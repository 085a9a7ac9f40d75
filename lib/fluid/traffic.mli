(** Input traffic: the matrix r of expected rates entering the network
    at router [src] destined for router [dst] (paper Section 2.1).

    Rates are in packets per second throughout the fluid model; helpers
    convert from bits per second given a mean packet size. *)

type flow = { src : Mdr_topology.Graph.node; dst : Mdr_topology.Graph.node; rate : float }

type t

val empty : n:int -> t

val of_flows : n:int -> flow list -> t
(** Rates of flows sharing (src, dst) accumulate.
    @raise Invalid_argument on self-flows, negative rates or nodes
    outside [0, n). *)

val of_pairs_bits :
  n:int -> packet_size:float -> rate_bits:(int -> float) ->
  (Mdr_topology.Graph.node * Mdr_topology.Graph.node) list -> t
(** Build from (src, dst) pairs where the i-th pair (0-based) offers
    [rate_bits i] bits/s, converted with the mean [packet_size]. *)

val node_count : t -> int
val rate : t -> src:int -> dst:int -> float

val rates : t -> float array array
(** The matrix itself, [(rates t).(src).(dst)], for loops that read many
    rates. Callers must not mutate it. *)

val total_rate : t -> float
val flows : t -> flow list
(** Non-zero entries, ordered by (src, dst). *)

val destinations : t -> int list
(** Destinations with at least one non-zero source, ascending;
    worked out on the first call and kept. *)

val scale : t -> float -> t
(** Multiply every rate; used for load sweeps. *)
