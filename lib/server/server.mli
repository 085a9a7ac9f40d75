(** The crash-safe route-server: a long-running holder of MPDA routing
    state that ingests incremental topology/cost updates and answers
    route and flow-split queries, built so that a kill at any moment
    loses at most the updates that were never durably accepted.

    {2 Execution model}

    The server runs one {!Mdr_routing.Router} per topology node and
    delivers their control messages synchronously, in FIFO order, with
    zero delay — a particular (valid) schedule of the paper's oracle
    model. Each accepted update therefore drives the control plane to
    quiescence deterministically: the state after update [k] is a pure
    function of the genesis state and updates [1 .. k]. That purity is
    what makes the durability story simple — there is no event engine
    or in-flight message set to persist, only the routers.

    {2 Durability}

    Updates are journaled ({!Journal}) before they are applied;
    periodic snapshots ({!Snapshot}) bound replay. {!restore} rebuilds
    from snapshot + journal to a state whose {!fingerprint} is
    byte-identical to the uninterrupted run at the same sequence
    number, tolerating a torn journal tail and a kill mid-snapshot.
    Updates arriving while the server is down are the client's to
    retry: {!seq} names the last durable update, and the client
    resumes from [seq + 1].

    {2 Backpressure}

    {!offer} feeds the bounded {!Ingest} queue (coalescing, optional
    damping, shedding with an explicit [`Degraded] status);
    {!poll} drains and applies. {!apply} is the direct, loss-free
    path the chaos audit uses. *)

type config = {
  snapshot_every : int;
      (** checkpoint automatically after this many applied updates;
          0 disables automatic checkpoints *)
  fsync : bool;  (** fsync the journal on every append *)
  queue_capacity : int;  (** ingest queue bound *)
  damping : Mdr_routing.Cost_trigger.params option;
      (** significance/hold-down damping for offered cost updates *)
  degraded_hold : float;  (** seconds [`Degraded] outlives the last shed *)
  max_staleness : float;  (** watchdog SLO: seconds without an applied update *)
  max_replay : int;  (** watchdog SLO: journal records a restore may replay *)
}

val default_config : config
(** snapshot every 64 updates, no fsync, queue of 256, no damping,
    5 s degraded hold, 30 s staleness budget, 256-record replay
    budget. *)

type t

val create :
  ?config:config ->
  dir:string ->
  topo:Mdr_topology.Graph.t ->
  cost:(Mdr_topology.Graph.link -> float) ->
  unit ->
  t
(** Fresh server: every link up at its [cost], an empty journal in
    [dir] (created if missing), any stale state files removed. *)

exception Unreadable of string
(** {!restore} cannot rebuild from the state it found: a journal with a
    bad header, a sequence gap or an undecodable entry, or a snapshot
    that does not decode against [topo]. The message names the fault. *)

val restore :
  ?config:config ->
  ?now:float ->
  dir:string ->
  topo:Mdr_topology.Graph.t ->
  cost:(Mdr_topology.Graph.link -> float) ->
  unit ->
  t
(** Rebuild from [dir]: the snapshot if one is readable (else genesis),
    plus a replay of every clean journal record past it. A torn
    journal tail is skipped with a warning; a leftover snapshot temp
    file is removed; the journal chain must be gapless.
    [topo] and [cost] must describe the same network the directory was
    written with (checked via a topology digest stored in the
    snapshot). @raise Unreadable on corruption that loses accepted
    updates. *)

val seq : t -> int
(** Global sequence number of the last accepted journal entry (updates
    and claims alike); 0 at genesis. *)

val alive : t -> bool
(** False once closed or killed by a simulated fault. *)

val topology : t -> Mdr_topology.Graph.t

(** {2 Multi-writer state}

    Every accepted entry carries its writer (journal format v2), so the
    server keeps one durable sequence space per client plus an epoch-
    fenced ownership table over duplex link pairs. Client id 0 is the
    trusted local path ({!apply}); wire clients are [>= 1]. *)

val client_seq : t -> client:int -> int
(** [client]'s durable high-water mark: the per-client sequence number
    of its last accepted update; 0 if it never wrote. A client that saw
    [client_seq = k] resumes submitting from [k + 1]. *)

val client_epoch : t -> client:int -> int
(** The epoch [client] last claimed under; 0 if it never claimed. *)

val epoch : t -> int
(** The last granted epoch, monotone across restarts (persisted in
    snapshot and journal). *)

val marks : t -> (int * int) list
(** All [(client, durable seq)] pairs, sorted by client — the table a
    restore must rebuild byte-identically. *)

val claims : t -> ((int * int) * (int * int)) list
(** The ownership table, sorted: [((a, b), (owner, epoch))] for every
    claimed duplex pair. *)

(** {2 Ingestion} *)

val apply : ?torn_after:int -> t -> now:float -> Update.t -> unit
(** Journal, then apply one update and run the control plane to
    quiescence — the trusted local path (client 0, no fencing).
    [torn_after] simulates a kill mid-journal-append: the record is cut
    short, nothing is applied in memory, and the server is dead.
    @raise Invalid_argument on an update that does not fit the topology
    (never journaled). *)

type claim_scope = All | Pairs of (int * int) list
(** What a client claims: the whole topology, or specific duplex pairs
    (normalized or not; claims are stored normalized [(min, max)]). *)

val claim : t -> now:float -> client:int -> scope:claim_scope -> int
(** Grant [client] ownership of [scope] under a fresh epoch (returned),
    strictly greater than every epoch ever granted. The grant is
    journaled (consuming a global sequence number) before it takes
    effect, so it survives restarts. Re-claiming pairs owned by another
    client is the takeover path: the new epoch fences the old owner.
    Idempotence: if [client] already owns every requested pair, the
    standing grant is returned and nothing is journaled — a retried or
    duplicated Claim must not fence its own sender.
    @raise Invalid_argument on a dead server, [client < 1], an empty
    scope, or pairs the topology does not have duplex. *)

type submit_result =
  | Applied  (** durably accepted and applied *)
  | Duplicate
      (** at or below the client's durable mark — already accepted,
          safe to re-ack *)
  | Seq_gap of { expected : int }
      (** out-of-order submit; nothing journaled *)
  | Fenced of { owner : int; current : int }
      (** the touched pair is owned by [owner] under epoch [current],
          which the presented epoch does not meet — a zombie writer *)
  | Died  (** a simulated kill tore the append; the entry was lost *)

val submit :
  t -> now:float -> client:int -> seq:int -> epoch:int -> Update.t -> submit_result
(** The fenced multi-writer path: accept [client]'s update number [seq]
    (per-client, contiguous from 1) presented under [epoch]. Dedup is
    per-(client, seq); an update touching a claimed pair must present
    the owning client's current epoch. Unclaimed pairs are open to any
    client. @raise Invalid_argument on a dead server, [client < 1],
    [seq < 1], or an update that does not fit the topology. *)

val arm_torn : t -> torn_at:int -> unit
(** Arm a one-shot simulated kill: the next journal append (whatever
    path triggers it) tears at byte [torn_at] and the server dies. This
    is how the wire audit plants mid-journal kills on entries that
    arrive through {!submit}. *)

val offer : t -> now:float -> Update.t -> unit
(** Feed the backpressure queue; see {!Ingest.offer}. *)

val poll : ?max:int -> t -> now:float -> int
(** Drain up to [max] queued updates (default: all) through {!apply};
    returns how many were applied. *)

val drain : t -> now:float -> float * int
(** Poll until the queue is empty and no hold-down timer is armed,
    starting at [now] and advancing the clock one second per round;
    returns the clock it settled at and the updates applied.
    @raise Failure after 10,000 rounds. *)

val checkpoint : ?torn_after:int -> t -> unit
(** Write a snapshot and reset the journal. [torn_after] simulates a
    kill mid-snapshot: a partial temp file is left behind, the real
    snapshot and journal are untouched, and the server is dead. *)

val close : t -> unit
(** Release file handles without checkpointing — deliberately
    indistinguishable from a kill between updates, which is the point:
    a close-then-restore must lose nothing. *)

(** {2 Queries} *)

type route = {
  distance : float;
  best : int option;  (** preferred (shortest-path) successor *)
  successors : int list;  (** the loop-free successor set *)
}

val route : t -> src:int -> dst:int -> route

val split : t -> src:int -> dst:int -> (int * float) list
(** Flow-split fractions over the successor set, inversely
    proportional to successor path cost (link + successor's distance),
    normalized to 1. Empty when [src] has no successor for [dst]. *)

(** {2 Health and audit hooks} *)

type status = Ok | Degraded

type restore_info = {
  replayed : int;  (** journal records applied on top of the base state *)
  torn_skipped : bool;
  from_snapshot : bool;  (** false: rebuilt from genesis *)
  duration : float;  (** restore wall-clock seconds *)
}

type corruption = {
  torn_tails : int;  (** torn journal tails skipped at restore *)
  snapshot_fallbacks : int;
      (** unreadable snapshots abandoned for genesis + replay *)
}
(** Corruption this server instance detected and survived. The
    recoveries themselves are the journal/snapshot layers' job; the
    counters exist so an operator can tell "clean" from "survived
    corruption" without reading stderr. *)

type health = {
  seq : int;
  snap_seq : int;  (** sequence number covered by the on-disk snapshot *)
  journal_records : int;  (** records a restore right now would replay *)
  queue_depth : int;
  pending_timers : int;
  status : status;
  staleness : float;  (** seconds since the last applied update *)
  heartbeats : int;
  ingest : Ingest.stats;
  last_restore : restore_info option;
  corruption : corruption;
  spf_full_runs : int;
      (** full Dijkstra runs over the main tables, summed over all
          routers ({!Mdr_routing.Router.spf_stats}; neighbor tables run
          no SPF) *)
  spf_repairs : int;  (** incremental main-table SPF repairs, summed over all routers *)
  spf_fallbacks : int;  (** main-table repairs that fell back to a full run *)
}

val health : t -> now:float -> health

type alarm =
  | Stale of { age : float; budget : float }
      (** no update applied for longer than the staleness SLO *)
  | Replay_lag of { records : int; budget : int }
      (** the journal has outgrown the replay SLO — snapshots are not
          keeping up *)
  | Shedding of { shed : int }  (** the ingest queue dropped updates *)
  | Survived_corruption of corruption
      (** raised once, on the first heartbeat after a restore that
          skipped a torn tail or abandoned an unreadable snapshot *)

val heartbeat : t -> now:float -> alarm list
(** The watchdog tick: bump the heartbeat counter and report every SLO
    the server is currently violating. *)

val fingerprint : t -> string
(** Hex digest over the canonical {!Mdr_routing.Router.fingerprint} of
    every router plus the live link set — equal digests mean the
    control planes are in byte-identical protocol states. *)

val settled : t -> bool
(** Every router PASSIVE (always true between {!apply} calls). *)

val lfi_ok : t -> bool
(** The LFI conditions (Eq. 16) hold and every destination's successor
    graph is loop-free, right now. *)
