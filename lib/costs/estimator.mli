(** Online marginal-delay (link cost) estimation (paper Section 4.3).

    An estimator watches one link inside the packet simulator: it is
    told about every packet arrival/departure and, at the end of each
    measurement interval, produces an estimate of the marginal delay
    D'(f) at the link's current operating point. Three estimators are
    provided:

    - {!mm1}: the closed-form M/M/1 marginal (paper Eq. 24,
      differentiated) fed with the measured arrival rate — requires
      knowing the link capacity;
    - {!busy_period}: a perturbation-analysis-inspired estimator in the
      spirit of Cassandras, Abidi and Towsley: within each busy period
      an extra (perturbation) customer would delay every later customer
      of the period by one service time, so D'(f) is estimated as the
      mean service time multiplied by the mean number of customers a
      busy period would push back, plus the propagation delay. It needs
      no a-priori capacity.
    - {!measured_sojourn}: plain average sojourn (not a marginal) —
      deliberately biased; used as an ablation of how much the marginal
      matters.

    All estimators expose the same sampling interface so the simulator
    can swap them (the paper: "our approach does not depend on which
    specific technique is used"). *)

type sample = {
  arrival_rate : float;  (** measured packets/s over the window *)
  mean_sojourn : float;  (** measured queueing+transmission delay, s *)
  marginal : float;
      (** the link cost estimate, s — always finite and non-negative
          (a window whose raw estimate is not finite reuses the
          previous estimate instead of poisoning the cost pipeline) *)
  saturated : bool;
      (** overload signal: for {!mm1}, the measured arrival rate lies
          beyond the delay model's knee ([Delay.saturated]); for the
          capacity-oblivious estimators, the window's backlog grew
          (strictly more arrivals than departures) *)
}

type t

val mm1 : capacity:float -> prop_delay:float -> t
(** [capacity] in packets/s. *)

val busy_period : prop_delay:float -> t

val measured_sojourn : prop_delay:float -> t

val on_arrival : t -> unit
(** A packet joined the link (queue or server). *)

val on_departure : t -> sojourn:float -> service:float -> busy:bool -> unit
(** A packet finished transmission after spending [sojourn] seconds on
    the link, with transmission time [service]; [busy] says whether the
    server stays busy after this departure. *)

val sample : t -> now:float -> sample
(** Close the current measurement window, returning the estimate and
    starting a fresh window. A window with no traffic yields the
    zero-flow marginal (or the previous estimate for estimators without
    a model). *)
