(** Discrete-event simulation engine.

    A single monotonic clock and a priority queue of callbacks. Events
    fire in order of [(time, scheduling order)]: by time, and events
    scheduled for the same instant in the order they were scheduled,
    which keeps runs deterministic. Handlers may schedule further
    events and cancel pending ones.

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

val cancel : t -> event_id -> unit
(** Stop a pending event from firing; [pending] drops by one. Cancelling
    an event that has already fired or been cancelled is a no-op and
    leaves [pending] as it is. *)

val pending : t -> int
(** Number of not-yet-fired, not-cancelled events. *)

val run : ?until:float -> t -> unit
(** Process events in time order. With [until], stops once the clock
    would pass it (the clock then reads [until]); without, runs until
    the queue drains. *)

val step : t -> bool
(** Process exactly one event; [false] when the queue is empty. *)
