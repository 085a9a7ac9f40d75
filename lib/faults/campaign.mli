(** Chaos campaigns: randomized fault schedules run against MPDA and
    DV under identical event streams, with the loop-freedom and LFI
    invariants audited after every processed protocol event.

    A {!plan} is a deterministic function of an {!Mdr_util.Rng} seed:
    link flaps, cost surges, node crash/restart cycles, one optional
    partition/heal, and a lossy-channel model (drops, duplicates,
    jitter, an optional blackout window). {!run_mpda} / {!run_dv}
    execute a plan and return {!metrics}; the invariant-violation
    counts must be zero for both protocols — that is the paper's
    Theorem 3 under churn, and the campaign is its enforcement
    harness. *)

type fault =
  | Flap of { a : int; b : int; at : float; restore_at : float }
      (** duplex link failure at [at], restoration at [restore_at] *)
  | Cost_surge of { a : int; b : int; at : float; factor : float }
      (** both directions' costs multiplied by [factor] (from the
          campaign's base cost) at [at] *)
  | Demand_surge of {
      src : int;
      dst : int;
      factor : float;
      at : float;
      until_ : float;
    }
      (** commodity (src, dst)'s load multiplied by [factor] over
          [at, until_): the control plane sees the surge as
          measured-cost inflation along the commodity's min-hop path,
          restored when the window closes (surges always end inside
          the churn window) *)
  | Crash of { node : int; at : float; restart_at : float }
  | Partition of { group : int list; at : float; heal_at : float }

type plan = {
  faults : fault list;  (** sorted by start time *)
  channel : Channel.t;
  duration : float;  (** all fault activity ends by this time *)
}

type profile = {
  duration : float;  (** window in which faults are injected *)
  flaps : int;  (** number of link flap cycles *)
  crashes : int;  (** number of crash/restart cycles *)
  cost_surges : int;
  demand_surges : int;  (** number of windowed per-commodity load surges *)
  partition : bool;  (** include one partition/heal of a random cut *)
  max_drop : float;  (** per-plan drop probability drawn in [0, max] *)
  max_duplicate : float;
  max_jitter : float;  (** seconds *)
  blackout : bool;  (** include one hard blackout window *)
}

val default_profile : profile
(** 30 s of churn: 2 flaps, 1 crash, 2 cost surges, 2 demand surges, a
    partition every
    plan, drop up to 0.3, duplication up to 0.1, jitter up to 20 ms,
    one blackout window. The lossy layers expire at [duration] along
    with the scheduled faults, so reconvergence is judged over a clean
    channel — essential under hello detection, where a permanently
    lossy control channel keeps failure detection misfiring and
    quiescence would be unreachable by design. *)

val random_plan :
  rng:Mdr_util.Rng.t -> topo:Mdr_topology.Graph.t -> profile -> plan
(** Draw a fault schedule for [topo]. Fault windows always close
    strictly before [profile.duration]; crash targets are distinct
    nodes; flap and surge targets are drawn from the topology's duplex
    links. *)

type metrics = {
  protocol : string;
  events : int;  (** router events processed (audits performed) *)
  loop_violations : int;  (** successor-graph cycles observed — must be 0 *)
  lfi_violations : int;  (** LFI (Eq. 16) failures observed — must be 0 *)
  check_failures : int;
      (** events after which some MPDA router failed its from-scratch
          rebuild check ({!Mdr_routing.Router.check}) — must be 0;
          counted only under [~check_routers:true], so always 0 for
          DV *)
  messages : int;  (** router messages + retransmissions *)
  retransmissions : int;
  transport_acks : int;
  hellos : int;  (** hello frames sent (0 under oracle detection) *)
  active_phases : int;
      (** MPDA ACTIVE phases entered across all routers, including
          routers that crashed mid-run; 0 for DV *)
  detection_latencies : float list;
      (** per detected physical link-down: seconds from the failure to
          the surviving endpoint's routing process being told *)
  detection_absorbed : int;
      (** physical link-downs undone before any router was told *)
  detection_false_positives : int;
      (** adjacency teardowns with no physical failure outstanding *)
  blackhole_time : float;
      (** seconds (sampled at protocol events, from the first fault
          on) during which some live router had no successor for a
          physically reachable destination *)
  permanent_blackhole : bool;
      (** a blackhole was still open when the run ended — with
          [converged = true] that is a real routing hole, not churn *)
  reconvergence : float;
      (** seconds from the end of fault activity to quiescence;
          [nan] when the run failed to settle *)
  converged : bool;
      (** quiescent, loop-free and LFI-clean at the end of the run *)
}

val run_mpda :
  ?detection:Mdr_routing.Harness.detection ->
  ?cost:(Mdr_topology.Graph.link -> float) ->
  ?settle_grace:float ->
  ?check_routers:bool ->
  topo:Mdr_topology.Graph.t ->
  seed:int ->
  plan ->
  metrics
(** Execute [plan] against the MPDA network. [detection] (default
    [Oracle]) selects oracle link-state delivery or hello-based
    inference; [cost] defaults to [1 + 1000 * prop_delay];
    [settle_grace] (default 600 s) bounds how long past the last fault
    the run may take to quiesce. [seed] feeds both the channel fault
    model's random stream and the harness's hello/RTO jitter. After
    every event the run audits loop-freedom and the LFI conditions;
    with [check_routers] (default [false]) it also runs every router's
    rebuild check. That is off by default because it costs more than
    the run it audits, and [perfbench] times the campaign itself. *)

val run_dv :
  ?detection:Mdr_routing.Harness.detection ->
  ?cost:(Mdr_topology.Graph.link -> float) ->
  ?settle_grace:float ->
  topo:Mdr_topology.Graph.t ->
  seed:int ->
  plan ->
  metrics
(** Same plan, distance-vector network. *)

val run_campaign :
  ?jobs:int ->
  ?detection:Mdr_routing.Harness.detection ->
  ?cost:(Mdr_topology.Graph.link -> float) ->
  ?settle_grace:float ->
  ?profile:profile ->
  topo_of:(int -> Mdr_util.Rng.t -> Mdr_topology.Graph.t) ->
  seed:int ->
  scenarios:int ->
  unit ->
  (metrics * metrics) array
(** Run [scenarios] independent fault scenarios, each against MPDA and
    DV, fanned out on an {!Mdr_util.Pool} ([jobs] defaults to
    [MDR_JOBS]). Scenario [i] draws its plan from a fresh rng seeded
    [seed + i] over the topology [topo_of i rng], so every result is a
    pure function of its index: the returned array — MPDA metrics
    paired with DV metrics, in scenario order — is byte-identical at
    any job count. *)

val fingerprint : metrics -> string
(** Full-precision one-line serialization of a metrics record (floats
    with [%h]); equal strings iff equal metrics. Feeds {!digest} and
    the parallel-equivalence checks. *)

val digest : (metrics * metrics) array -> string
(** Hex MD5 over the fingerprints of a {!run_campaign} result, in
    scenario order — the campaign's trace hash for sequential-vs-
    parallel comparison. *)

val successor_agreement :
  ?cost:(Mdr_topology.Graph.link -> float) ->
  ?channel:Channel.t ->
  topo:Mdr_topology.Graph.t ->
  seed:int ->
  unit ->
  bool * int
(** Bring the MPDA network up twice — once over ideal channels, once
    over [channel] (default: 20% drop) — and compare every router's
    converged successor set for every destination. Returns (sets
    identical, retransmissions the lossy run needed). Proves the
    transport layer out: loss must change cost, not routes. *)

val describe_fault : Mdr_topology.Graph.t -> fault -> string

val summary_table : (string * metrics list) list -> string
(** One row per labelled batch of runs: totals for events, violations
    and message overhead, mean/max reconvergence time, converged
    count. Rendered with {!Mdr_util.Tab}. *)

val slo_table : metrics list -> string
(** Recovery-SLO percentiles over a batch: detection latency (pooled
    across events), blackhole time per run, reconvergence per run.
    Meaningful under hello detection; under oracle detection every
    latency is 0. *)

(** Outcome of {!damping_demo}: the same flapping-link schedule run
    with and without flap damping. *)
type damping_result = {
  active_phases_damped : int;
  active_phases_undamped : int;
  detected_flaps_damped : int;  (** [Full -> Down] transitions, both endpoints *)
  detected_flaps_undamped : int;
  suppressed_during_flaps : bool;
      (** the damped run actually held the adjacency down at some
          probe point — the mechanism, not just the effect *)
}

val damping_demo :
  ?flaps:int ->
  ?period:float ->
  ?link:int * int ->
  topo:Mdr_topology.Graph.t ->
  seed:int ->
  unit ->
  damping_result
(** Flap one duplex link (default: the topology's first) [flaps] times
    with period [period] (down for half, up for half; the down-time
    must exceed the default dead interval so every flap is detectable)
    against MPDA under hello detection, once with {!Mdr_routing.Hello.default_damping}
    and once with damping disabled. Damping should cut the ACTIVE
    phase count: suppressed flaps never reach the routing process. *)
