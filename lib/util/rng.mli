(** Deterministic pseudo-random numbers (SplitMix64).

    Every stochastic component of the simulator draws from an explicit
    [t], so experiments are reproducible from a single integer seed and
    independent streams can be split off without correlation. *)

type t

val create : seed:int -> t

val split : t -> t
(** A statistically independent stream derived from [t]; both streams
    advance independently afterwards. *)

val substream : seed:int -> index:int -> t
(** The [index]-th independent stream of [seed], a pure function of the
    pair. Parallel tasks use this so their randomness depends only on
    their input index — never on scheduling order or on how many draws
    other tasks have made. Requires [index >= 0]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [lo, hi). Requires [lo <= hi]. *)

val int : t -> bound:int -> int
(** Uniform in [0, bound). Requires [bound > 0]. *)

val exponential : t -> rate:float -> float
(** Exponential variate with the given [rate] (mean [1/rate]).
    Requires [rate > 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
