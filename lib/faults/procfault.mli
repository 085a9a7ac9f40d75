(** Process-kill fault plans for the route-server chaos harness.

    The chaos campaigns ({!Campaign}) attack a {e network} of routers;
    this module attacks a single routing {e process}: it draws the
    update stream a deployed route-server would ingest and the points
    at which the process is killed. Like every plan generator in this
    library, the output is a pure function of the {!Mdr_util.Rng}
    stream, so a failing kill schedule is reproducible from its seed.

    The update language is deliberately this library's own (not the
    server's): [Mdr_server] depends on [Mdr_faults] for its audit, so
    the fault plans cannot reference the server's types. The audit maps
    {!update} onto its wire updates one-to-one. *)

type update =
  | Cost_change of { src : int; dst : int; cost : float }
      (** measured cost of the directed link [src -> dst] changed *)
  | Fail of { a : int; b : int }  (** duplex link failure *)
  | Restore of { a : int; b : int; cost : float }
      (** duplex restoration, both directions at [cost] *)

(** Where, relative to an update's processing, the process dies. *)
type where =
  | Between  (** after the update is fully applied and durable *)
  | Mid_journal
      (** during the journal append for the update: a torn record, the
          update never accepted *)
  | Mid_snapshot
      (** during a snapshot written after the update: a torn temp file,
          the previous snapshot still in place *)

type kill = { after : int; where : where; torn_at : int }
(** Kill the process at update number [after] (1-based), at point
    [where]; [torn_at] is the byte offset at which a torn write stops
    (clamped by the writer to keep the write strictly partial). *)

val default_base_cost : Mdr_topology.Graph.link -> float
(** [1 + 1000 * prop_delay] — the CLI's static link cost, shared here
    so streams and servers agree on what a link "normally" costs. *)

val partition_pairs : clients:int -> Mdr_topology.Graph.t -> (int * int) list list
(** Round-robin the duplex pairs across [clients] non-empty disjoint
    buckets (bucket [k] gets pairs [k], [k + clients], ...). The
    multi-writer audit hands bucket [k] to client [k + 1] as its claimed
    scope. @raise Invalid_argument if [clients < 1] or the topology has
    fewer duplex pairs than clients. *)

val stream :
  rng:Mdr_util.Rng.t ->
  ?base_cost:(Mdr_topology.Graph.link -> float) ->
  topo:Mdr_topology.Graph.t ->
  updates:int ->
  unit ->
  update list
(** Draw exactly [updates] updates: roughly 70% cost changes (a random
    up directed link, cost = base times [e^u], [u] uniform in
    [-1.4, 1.4]), 15% duplex failures (never the last up link), 15%
    restorations of a currently-down link (at base cost). Draws that
    cannot apply (nothing down to restore, one link left) fall back to
    cost changes, so the length is always exactly [updates].
    @raise Invalid_argument if [topo] has no duplex link. *)

val stream_on :
  rng:Mdr_util.Rng.t ->
  ?base_cost:(Mdr_topology.Graph.link -> float) ->
  topo:Mdr_topology.Graph.t ->
  pairs:(int * int) list ->
  updates:int ->
  unit ->
  update list
(** {!stream} restricted to a subset of the topology's duplex pairs —
    one writer's world in a multi-writer run. The "never fail the last
    up link" guard applies within [pairs], so a client that owns a
    single pair only ever re-costs it. @raise Invalid_argument if
    [pairs] is empty, not normalized, or not a subset of
    {!Mdr_topology.Graph.duplex_pairs}. *)

val cost_storm :
  rng:Mdr_util.Rng.t ->
  ?base_cost:(Mdr_topology.Graph.link -> float) ->
  topo:Mdr_topology.Graph.t ->
  updates:int ->
  unit ->
  update list
(** Pure cost-change stream (no topology events) over all duplex
    links — the backpressure layer's worst case, since cost updates are
    the sheddable kind. *)

val random_kills :
  rng:Mdr_util.Rng.t -> updates:int -> kills:int -> kill list
(** [kills] kill points at distinct update numbers drawn from
    [2 .. updates - 1], sorted; the kill kinds rotate
    [Mid_snapshot, Between, Mid_journal, ...] so every schedule with
    [kills >= 3] exercises all three, and each torn write gets a fresh
    random byte offset. Requires [updates >= kills + 2]. *)

val describe : Mdr_topology.Graph.t -> update -> string
