(** Online statistics.

    [Welford] accumulates mean and variance in one pass; [Timed]
    accumulates time-weighted averages (e.g. queue occupancy over
    simulated time); [Window] keeps a sliding accumulation that can be
    sampled and reset at measurement-interval boundaries, as the
    protocol does every [T_l] / [T_s] seconds. *)

module Welford : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Sample variance; 0 with fewer than two observations. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val reset : t -> unit
end

module Timed : sig
  type t

  val create : ?start:float -> unit -> t

  val update : t -> now:float -> value:float -> unit
  (** Record that the tracked quantity has held its previous value up
      to [now] and takes [value] from [now] on. [now] must be
      non-decreasing. *)

  val average : t -> now:float -> float
  (** Time-weighted average over [start, now]. *)

  val reset : t -> now:float -> unit
  (** Restart the averaging window at [now], keeping the current value. *)
end

val mean_of_list : float list -> float
val percentile : float list -> p:float -> float
(** Nearest-rank percentile; [p] in [0,100]. Raises on empty input. *)

val percentile_array : float array -> p:float -> float
(** [percentile] of the array's elements; sorts the array in place. *)
