(** Epsilon-aware float comparison, the sanctioned replacement for raw
    [=]/[<>]/[compare] on floats (which the repo lint rejects).

    Use [Float.equal] directly for exact sentinel checks (values that
    were assigned, never computed); use these helpers for anything that
    went through arithmetic. *)

val default_eps : float
(** 1e-9, the relative tolerance used when [?eps] is omitted. *)

val approx : ?eps:float -> float -> float -> bool
(** [approx a b] is true when [a] and [b] agree to within
    [eps * max 1 (max |a| |b|)] (relative for large magnitudes,
    absolute near zero). Equal infinities and identical nans compare
    true. *)
