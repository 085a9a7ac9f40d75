(** Discrete-event simulation engine.

    A single monotonic clock and a priority queue of callbacks. Events
    fire in order of [(time, as-of instant, scheduling order)]. An
    event's as-of instant is the clock when it was scheduled, so events
    due at the same instant fire in the order they were scheduled,
    which keeps runs deterministic; {!schedule_as_of} sets a later
    as-of instant, for an event that stands in for one a model would
    have scheduled later. Handlers may schedule further events and
    cancel pending ones.

    The queue is a flat binary heap of times and ids; taking the next
    event off it does not allocate, so [step] and [run] allocate only
    what the callbacks do. Scheduling allocates only the boxed time
    [schedule] computes and, now and then, a doubling of the queue's
    arrays. At most 2{^24} events may be pending at once. *)

type t

type event_id

val create : unit -> t

val now : t -> float
(** Current simulated time, seconds. Starts at 0. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** Run the callback [delay] seconds from now. [delay] must be
    non-negative. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Run the callback at absolute [time >= now]. [time] must not be NaN. *)

val schedule_as_of : t -> as_of:float -> time:float -> (unit -> unit) -> event_id
(** Run the callback at absolute [time], ordered among the events due
    at [time] as if it had been scheduled when the clock read [as_of]
    ([now <= as_of <= time]): after the events scheduled before
    [as_of], before those scheduled after it, and by scheduling order
    among those with the same as-of instant. *)

val cancel : t -> event_id -> unit
(** Stop a pending event from firing; [pending] drops by one. Cancelling
    an event that has already fired or been cancelled is a no-op and
    leaves [pending] as it is. *)

type clock = private { mutable now : float; mutable firing_as_of : float }

val clock : t -> clock
(** A read-only view of the clock: [now] always equals {!now}, and
    [firing_as_of] is the as-of instant of the event whose callback is
    running, [infinity] outside a callback. A field read costs no call
    and boxes no float, which a caller's per-event code can use. *)

val pending : t -> int
(** Number of not-yet-fired, not-cancelled events. *)

val run : ?until:float -> t -> unit
(** Process events in time order. With [until], stops once the clock
    would pass it (the clock then reads [until]); without, runs until
    the queue drains. *)

val step : t -> bool
(** Process exactly one event; [false] when the queue is empty. *)
