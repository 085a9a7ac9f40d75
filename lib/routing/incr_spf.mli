(** Incremental shortest-path-tree maintenance (delta Dijkstra).

    A {!state} holds the distances and parents of one root's
    shortest-path tree over the rows of a {!Topo_table.t}. It does not record which
    table it describes: the caller keeps it in step by passing every
    edit of the table to {!update}, or by calling {!full}. {!update}
    repairs it in place from a batch of edge changes, touching only the
    affected region (Ramalingam–Reps style: orphan the subtrees whose
    support broke, re-enter them from the intact boundary, seed
    decreases, and run the standard heap discipline over the dirty
    frontier), falling back to a full {!Dijkstra.on_table_into} when
    the dirty region is too large or a tie-ambiguity guard fires.

    {b Equivalence contract.} After [update], [state.dist] and
    [state.parent] are bit-identical to what a from-scratch
    {!Dijkstra.on_table_into} on the current table would produce —
    including the smallest-id-predecessor tie rule — for every table
    whose distinct path costs are either exactly equal or separated by
    more than the 1e-12 relative tolerance ({!Dijkstra.close}). Inputs
    violating that (sub-tolerance near-ties) make even two full runs
    relaxation-order-dependent and are outside the contract. Tables
    containing zero-cost edges are handled by always falling back to a
    full run (equal-distance plateaus make the local parent rule
    unsound), so results stay exact there too.

    The repair walks the table's rows in place ({!Topo_table.out_links},
    {!Topo_table.in_links}) and allocates nothing per edge: all scratch
    lives in the reusable {!ws} (stamp-marked arrays, growable
    vectors). The workspace holds no state between calls, so one
    workspace can serve any number of trees of any sizes in turn; it
    serves one domain at a time — parallel tasks own their own, as with
    {!Dijkstra.workspace}. *)

type stats = {
  mutable full_runs : int;  (** full Dijkstra runs ({!full} calls + fallbacks) *)
  mutable repairs : int;  (** successful incremental repairs *)
  mutable fallbacks : int;  (** updates that gave up and recomputed *)
  mutable repaired_nodes : int;  (** total nodes reported changed by repairs *)
}

type state = {
  dist : float array;  (** length [n]; [dist.(j)] = cost root -> j, [infinity] if unreachable *)
  parent : int array;  (** length [n]; canonical predecessor, [-1] for root/unreachable *)
  n : int;
  root : int;
  mutable has_zero : bool;
      (** The last full run saw a zero-cost edge (or a change introduced
          one); forces full recomputation until a full run sees none. *)
  stats : stats;  (** this tree's counters, live *)
}

type ws
(** Reusable repair scratch plus a {!Dijkstra.workspace} for fallback
    full runs. *)

type outcome =
  | Repaired of int
      (** Incremental repair succeeded; the payload is the number of
          nodes whose (dist, parent) actually changed. *)
  | Recomputed
      (** A full run replaced the tree (zero-cost guard,
          dirty-region threshold, or ambiguity guard); the caller must
          treat every node as potentially changed. *)

val create : n:int -> root:int -> state
(** Fresh state with its own buffers: the tree of the empty table
    (only [root] reached, at distance 0). Bring it to a non-empty table
    with {!full}, or with {!update} passing every link of the table as
    a change. *)

val workspace : unit -> ws
(** Empty workspace; grows to fit whatever [n] it is used with. *)

val stats : state -> stats
(** Live counters of this tree's runs, whatever workspaces served them. *)

val full : ws -> state -> Topo_table.t -> unit
(** Unconditional full recompute; rescans for zero-cost edges. *)

val update :
  ?max_dirty_frac:float ->
  ?on_changed:(int -> unit) ->
  ws ->
  state ->
  Topo_table.t ->
  changes:Topo_table.entry list ->
  outcome
(** Repair the tree to match [table]. [changes] must be exactly the
    edge changes (new costs; [infinity] = removed, the
    {!Topo_table.diff} convention) applied to the table since the state
    last matched it — since {!create} (the empty table), the last
    {!full} or the last [update]. Nothing checks this: a missed edit
    leaves the tree silently wrong. The repair falls back to a full run
    by itself when it must ([Recomputed]). Entries touching nodes
    outside [0, n) are ignored. [on_changed] is
    invoked once per actually-changed node, in ascending id order,
    after the repair completes (not called when the outcome is
    [Recomputed]). [max_dirty_frac] (default 0.25) bounds the orphaned
    fraction of the graph above which repairing falls back to a full
    run. *)

val default_max_dirty_frac : float
