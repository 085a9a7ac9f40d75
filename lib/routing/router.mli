(** The PDA / MPDA router state machine (paper Section 4.1, Figs. 1-4).

    A router keeps its main topology table T_i, one table T_k^i per
    neighbor, the distances derived from them, and — in MPDA mode — the
    feasible distances FD and successor sets S that satisfy the
    Loop-Free Invariant conditions (Eqs. 16-17):

    - FD_j^i <= D_jk^i for every neighbor k (enforced by deferring the
      table update while ACTIVE, i.e. until every neighbor has
      acknowledged the last LSU), and
    - S_j^i = {k | D_jk^i < FD_j^i}.

    In [Pda] mode the synchronization is skipped: the router floods
    diffs immediately and uses its current distance as the feasible
    distance. PDA converges to correct shortest paths (Theorem 2) but
    its successor graphs may loop *transiently* — the test-suite
    demonstrates exactly this difference.

    A neighbor table is the tree the neighbor reported, kept as an
    in-forest ({!Nbr_forest}): its distances are path sums, so no
    shortest-path run is made for it. An LSU updates the distances
    below the links it moved. An LSU that would give a node two
    parents, or a link into the neighbor itself, raises
    [Invalid_argument] naming this router, the neighbor and the node.

    The main-table update (MTU, steps 2-6) is incremental. Each row of
    the merged topology keeps its preferred neighbor (the one offering
    the shortest path to that node), kept current at every event; an
    event marks only the rows whose preferred neighbor or child list
    in that neighbor's table moved, the MTU re-derives only those,
    {!Incr_spf} repairs the shortest-path tree over the changed links,
    and the tree table and first hops are updated over the nodes that
    moved. {!check} compares all of it against a from-scratch
    rebuild.

    The main table is the shortest-path tree itself, so a router keeps
    it as one link cost per node, the head being the node's parent in
    the tree; {!main_table}, full-table LSUs and {!fingerprint} list
    its links on demand. The scratch of the neighbor-table and
    main-table updates holds nothing between events and is one per
    domain, shared by every router that domain runs: a router is safe
    to use from any one domain at a time.

    The machine is pure with respect to I/O: every handler returns the
    messages to transmit, and the embedding (control-plane harness or
    packet simulator) delivers them with whatever latency it models. *)

type mode = Pda | Mpda

type msg = {
  entries : Topo_table.entry list;  (** topology changes; empty for a pure ACK *)
  reset : bool;  (** full-table LSU: clear the stored neighbor table first *)
  seq : int option;  (** present iff the receiver must acknowledge *)
  ack_of : int option;  (** acknowledges the sender's LSU with this seq *)
}

type output = { dst : int; msg : msg }

type t

val create : mode:mode -> id:int -> n:int -> unit -> t
(** [n] is the number of node ids in play (ids are dense). The router
    starts with every adjacent link down; bring links up with
    {!handle_link_up}. *)

val id : t -> int
val mode : t -> mode

val handle_link_up : t -> nbr:int -> cost:float -> output list
(** An adjacent link to [nbr] came up with the given cost. Sends the
    full main table to [nbr] as the paper's NTU step 2 requires. *)

val handle_link_down : ?unconfirmed:bool -> t -> nbr:int -> output list
(** An adjacent link to [nbr] went down. With [~unconfirmed:true]
    (inferred detection: the peer may not know yet and may still route
    on its old view of us), [nbr] is additionally remembered as a
    {e ghost}: feasible distances are pinned — never raised, even at
    ACTIVE-phase completion — until {!confirm_link_down} releases it,
    because a departed-but-unaware neighbor can never acknowledge the
    raise the LFI conditions would require. Default [false] (the
    paper's bilateral oracle). *)

val confirm_link_down : t -> nbr:int -> output list
(** The embedding has established that [nbr] no longer routes on its
    old view of this router (its side tore the adjacency down too, or
    enough time passed that it must have). Releases the ghost; if that
    was the last one and pinned feasible distances lag the current
    distances, starts an empty diffusing computation so they recover
    through the ordinary ACK-synchronized path. No-op if [nbr] is not
    a ghost. *)

val handle_link_cost : t -> nbr:int -> cost:float -> output list
(** The measured cost (marginal delay) of the adjacent link changed. *)

val handle_msg : t -> from_:int -> msg -> output list
(** Process one received LSU. Messages from neighbors whose link is
    locally down are dropped. Raises [Invalid_argument] when the LSU
    would leave the neighbor's table other than an in-forest (see the
    module description) or names a node outside [0, n); the router is
    then unchanged. *)

val is_passive : t -> bool

val distance : t -> dst:int -> float
(** D_j^i: this router's distance to [dst] per its main table. *)

val feasible_distance : t -> dst:int -> float

val successors : t -> dst:int -> int list
(** S_j^i, ascending. In [Pda] mode, every neighbor strictly closer
    per the current distances. An event only marks the destinations
    whose set may have moved (an FD change, a change of D_jk for an up
    neighbor k, or, for every destination, a link going up or down);
    the first read after it recomputes the marked sets. *)

val changed_successors : t -> int list
(** Recompute the marked successor sets and return their destinations,
    in no particular order: every destination whose set may differ
    from the one it had when successor sets were last brought up to
    date (by this function, {!successors}, {!fingerprint} or
    {!snapshot}). An embedding that calls it after each event and reads
    successors only after it learns of every change. *)

val best_successor : t -> dst:int -> int option
(** First hop of the shortest path (the preferred neighbor). *)

val neighbor_distance : t -> nbr:int -> dst:int -> float
(** D_jk^i: distance from neighbor [nbr] to [dst] according to the
    topology [nbr] reported. *)

val link_cost : t -> nbr:int -> float
(** l_k: current cost of the adjacent link, [infinity] when down. *)

val up_neighbors : t -> int list

val main_table : t -> Topo_table.t
(** The router's current shortest-path tree, as a fresh table. *)

val stats_messages_sent : t -> int

val stats_active_phases : t -> int
(** PASSIVE -> ACTIVE transitions so far — each one is a diffusing
    computation holding the FD frozen until all neighbors ACK. *)

val spf_stats : t -> Incr_spf.stats
(** Live counters of the router's main-table SPF tree: full runs vs
    incremental repairs vs fallbacks, and total repaired nodes. They
    count this router's runs only, though the scratch the runs use is
    shared. Neighbor tables run no SPF and are not counted. *)

val check : t -> (unit, string) result
(** Compare the router's incremental state bit for bit against a
    from-scratch rebuild: each neighbor table's distances against a
    recompute; each row's preferred neighbor and its sum against a scan
    of every up neighbor; every merged-topology row not awaiting the
    next MTU against its derivation from that scan and the adjacency;
    distances and parents against a full Dijkstra over the stored
    merged topology; the main table against that shortest-path tree;
    the first hops; in [Mpda] mode FD_j <= D_j for every [j], which
    lets an event lower FD only where D moved; and every successor set
    not marked for
    recomputation against [{k up : D_jk < FD_j}] ([< D_j] in [Pda]
    mode). [Error] names the router and the first
    mismatch. Costs about one from-scratch rebuild; meant for tests and
    model checking, after any event. Leaves the router unchanged. *)

val fingerprint : t -> string
(** Canonical serialization of the router's complete protocol state
    (tables, distances, FD, successors, pending ACKs, sequence
    counters). Two routers with equal fingerprints behave identically
    on all future inputs; statistics counters ([stats_messages_sent],
    {!stats_active_phases}, {!spf_stats}) are excluded. Iteration order
    is deterministic, so the string is stable across runs. *)

val snapshot : t -> string
(** The router's protocol state as bytes: the neighbor tables, the
    adjacency, FD, the ACTIVE flag, pending ACKs, ghosts, owed full
    tables, the counters, and the merged rows an ACTIVE phase left
    awaiting the next MTU, in {!Mdr_util.Bin} fields. The rest is
    derived from these, so the bytes do not follow the record's layout;
    equal states give equal bytes. Brings the successor sets up to date
    first. *)

exception Corrupt of string

val restore : n:int -> string -> t
(** Inverse of {!snapshot}: the merged topology from the neighbor
    tables and the stored rows, then one full SPF run and the views
    derived from it. The result has the writer's fingerprint, counters
    and behaviour on all future inputs, and shares no mutable state
    with anything: [restore ~n (snapshot t)] is also how a router is
    copied. Raises {!Corrupt} on bytes it cannot read (truncated or
    trailing bytes, a field outside its codec range, an id outside
    [[0, n)], a neighbor table that is not an in-forest) or an [n]
    other than [~n]. *)
