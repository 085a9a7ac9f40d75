(** Update-storm backpressure: the bounded ingest queue sitting between
    the wire and the server's apply path.

    Three defences, all deterministic functions of the offered stream
    and the caller-supplied clock:

    - {b Coalescing}: a queued-but-not-yet-applied cost update for a
      directed link is {e replaced in place} by a newer sample for the
      same link — the queue holds at most one pending cost per link, so
      a storm of samples on few links costs queue space proportional to
      the links, not the samples.
    - {b Damping} (optional): each directed link's samples pass through
      a {!Mdr_routing.Cost_trigger} — OSPF-TE significance threshold +
      hold-down, BGP-style flap suppression — so sub-threshold wobble
      is absorbed before it can occupy queue space. Held-down samples
      are released by {!drain} when their timers expire.
    - {b Shedding}: when the queue is full, new cost samples are
      dropped (counted, never silently) and the server reports
      [`Degraded] — mirroring the overload layer's contract that
      degradation is explicit, never a wrong answer. Topology truth
      ({!Update.Link_down} / {!Update.Link_up}) is never shed: those
      enqueue even past the bound.

    Timers are the caller's: every entry point takes [now], so the
    server, the audit harness and the tests all drive the same machine
    with their own clocks. *)

type t

type stats = {
  offered : int;  (** updates handed to {!offer} *)
  coalesced : int;  (** cost samples folded into an already-queued slot *)
  absorbed : int;  (** cost samples the damper absorbed (sub-threshold) *)
  shed : int;  (** cost samples dropped because the queue was full *)
  released : int;  (** updates handed out by {!drain} *)
}

val create :
  ?damping:Mdr_routing.Cost_trigger.params ->
  ?degraded_hold:float ->
  capacity:int ->
  initial_cost:(src:int -> dst:int -> float) ->
  unit ->
  t
(** [capacity] bounds the queue (>= 1). [initial_cost] tells a link's
    first damper what the routing process already knows.
    [degraded_hold] (default 5 s) is how long after the last shed the
    status stays [`Degraded]. *)

val offer : t -> now:float -> Update.t -> unit
(** Never blocks and never raises on overload — overload turns into
    coalescing, absorption or shedding, visible in {!stats}. *)

val drain : ?max:int -> t -> now:float -> Update.t list
(** Release due held-down costs into the queue, then pop up to [max]
    updates (default: all) in arrival order. *)

val depth : t -> int
(** Updates currently queued. *)

val pending_timers : t -> int
(** Armed hold-down timers not yet due — work {!drain} will release
    later; a quiescence check must count them. *)

val status : t -> now:float -> [ `Ok | `Degraded ]

val stats : t -> stats
