(** Online statistics.

    [Welford] accumulates mean and variance in one pass; the functions
    below summarize a finished list or array of samples. *)

module Welford : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Sample variance; 0 with fewer than two observations. *)

  val min : t -> float
  val max : t -> float
  val reset : t -> unit
end

val mean_of_list : float list -> float
val percentile : float list -> p:float -> float
(** Nearest-rank percentile; [p] in [0,100]. Raises on empty input. *)

val percentile_array : float array -> p:float -> float
(** [percentile] of the array's elements; sorts the array in place. *)
