(** Per-adjacency failure detection: an OSPF-style hello state machine
    with BGP-style flap damping.

    The paper assumes an oracle delivers link-down events to both
    endpoints instantly. This module is the realistic alternative: each
    node sends jittered periodic HELLOs on every physically-up link and
    *infers* neighbor loss from silence (a dead interval of missed
    hellos), from one-way reception (the neighbor's hello no longer
    lists us), or from a changed session number (the neighbor
    restarted — or reset its side of the adjacency — faster than the
    dead interval could notice).

    The machine is deliberately engine-agnostic: handlers mutate one
    {!adj} record and return {!action}s, and the embedding (the
    {!Harness}) owns timers, frames and the clock. That keeps the FSM
    unit-testable without a simulator and keeps all scheduling policy
    in one place.

    State meanings (a trimmed OSPF neighbor FSM):
    - [Down]: nothing heard within the dead interval.
    - [Init]: hellos arrive but the neighbor does not yet hear us.
    - [TwoWay]: mutual reception, but the adjacency is withheld from
      the routing process (only while damping suppresses it).
    - [Full]: reported up to the routing process.

    Damping: every [Full -> Down] transition charges [flap_penalty];
    the penalty decays exponentially with [half_life]. At or above
    [suppress] the adjacency is pinned at [TwoWay]; once the decayed
    penalty falls back to [reuse] it may be promoted again. *)

type damping = {
  flap_penalty : float;  (** added per [Full -> Down] transition *)
  half_life : float;  (** seconds for the penalty to halve *)
  suppress : float;  (** penalty at/above which the adjacency is held down *)
  reuse : float;  (** penalty at/below which it may come back *)
}

type params = {
  hello_interval : float;  (** mean seconds between hellos *)
  jitter : float;
      (** fraction of [hello_interval] randomized away: each gap is
          uniform in [interval * (1 - jitter/2, 1 + jitter/2)] *)
  dead_interval : float;  (** silence after which the neighbor is declared dead *)
  damping : damping option;  (** [None] disables flap damping *)
}

val default_damping : damping
(** Penalty 1.0 per flap, half-life 10 s, suppress at 2.0, reuse at
    0.75 (BGP's classic 2:1 suppress-to-penalty and ~0.75 reuse
    ratios, with a half-life scaled to simulation seconds): a link
    flapping every few seconds is suppressed by its third detected
    flap and held down for roughly 10-20 s after it stabilizes. *)

val default_params : params
(** 0.5 s hellos with 25% jitter, 2 s dead interval,
    [Some default_damping]. *)

val validate : params -> unit
(** @raise Invalid_argument on non-positive intervals, a dead interval
    not exceeding the hello interval, jitter outside [0, 1), or
    damping thresholds with [reuse > suppress] or non-positive
    components. *)

type state = Down | Init | TwoWay | Full

type down_cause = [ `Dead | `One_way | `Peer_reset ]
(** Why an established adjacency was torn down: dead-interval expiry,
    the neighbor stopped hearing us, or the neighbor reset its side of
    the adjacency (a reboot, or a one-sided teardown it signalled by
    bumping its session number). *)

type action =
  | Report_up  (** tell the routing process the adjacency is usable *)
  | Report_down of down_cause  (** tell it the adjacency is gone *)
  | Arm_dead of float  (** (re)arm the dead-interval check at this absolute time *)
  | Arm_reuse of float  (** arm a damping reuse check after this many seconds *)

type adj
(** Mutable per-(node, neighbor) detector state. *)

val create : params -> adj
val state : adj -> state
val suppressed : adj -> bool
val flaps : adj -> int
(** Detected [Full -> Down] transitions so far. *)

val heard_gen : adj -> int
(** The neighbor session number we are currently hearing, or -1 when
    [Down] — exactly the value our own hellos must carry back so the
    neighbor can tell we hear it (two-way check). *)

val penalty : adj -> now:float -> float
(** Decayed damping penalty at [now] (0 when damping is disabled). *)

val on_hello : adj -> now:float -> gen:int -> heard_me:bool -> action list
(** A hello arrived: the neighbor's session number is [gen] and
    [heard_me] says whether its hello carried our current session
    back. Never returns both a [Report_down] and [Report_up] out of
    order: a peer reset tears down first, then the fresh hello is
    processed. *)

val on_dead_check : adj -> now:float -> action list
(** The dead-interval timer fired. Either the deadline was pushed by a
    later hello ([Arm_dead] again) or the neighbor is declared dead. *)

val on_reuse_check : adj -> now:float -> action list
(** The damping reuse timer fired: release the suppression if the
    penalty has decayed to [reuse], else re-arm. *)
