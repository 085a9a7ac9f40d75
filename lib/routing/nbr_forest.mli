(** A neighbor's topology table T_k^i stored as an in-forest.

    In PDA/MPDA a neighbor k reports its main table, which is a
    shortest-path tree rooted at k (paper Section 4.1). So every node
    has at most one link into it, none leads into k, and the distance
    D_jk from k to j is a path sum along the tree: no shortest-path run
    is needed. This module stores such a table in flat arrays — per
    node its parent link (head and cost), intrusive child lists, and
    the distance — with no hashing.

    The table is the set of links [(parent v, v, cost v)] over the
    nodes [v] that have a parent, and {!entries} lists exactly that.
    A link may hang off a node k does not reach (a detached subtree,
    or a cycle cut off from k); such nodes keep their links but have
    distance [infinity], as {!Dijkstra} would give them.

    The forest invariant is a protocol invariant, not a hint: an LSU
    that would give a node two parents or a link into the root raises
    [Invalid_argument] naming the node, and leaves the table as it
    was. *)

type t

type ws
(** Reusable scratch for {!apply}, {!load} and {!recompute}: stamp
    marks, a stack and the region of nodes under recompute. It holds
    nothing between calls, so one workspace serves forests of any
    sizes in turn, growing to fit the largest [n]; it serves one
    domain at a time. *)

val workspace : unit -> ws

val create : n:int -> root:int -> t
(** The empty table of neighbor [root] over node ids [0, n): every
    distance is [infinity] except [root]'s, which is [0]. *)

val copy : t -> t
(** Deep copy sharing no mutable state. *)

val clear : t -> unit
(** Remove every link; distances return to those of {!create}. *)

val apply :
  ?on_changed:(int -> unit) -> ws -> t -> Topo_table.entry list -> Topo_table.entry list
(** Apply one LSU as a batch: an entry with a finite cost sets the link
    [head -> tail], any other cost removes it, and a later entry for the
    same link overrides an earlier one ({!Topo_table.apply_entry} in
    sequence). Returns the net changes — the final entry of each link
    whose state it changed, so a removal keeps its non-finite cost —
    sorted by (head, tail).

    Every moved node is re-linked before any distance is touched, so a
    new parent link may come before the old one's removal. Distances
    are then recomputed top-down over each touched subtree as
    [dist parent + cost] (never shifted by a delta, so they stay
    bit-equal to a full run). [on_changed] is called once for each node
    whose distance changed, in no particular order.

    Raises [Invalid_argument] on a node id outside [0, n), a self-loop,
    a negative cost, a link into the root, or a node left with two
    parents; the table is then unchanged. *)

val load : ws -> t -> Topo_table.entry list -> unit
(** A full-table LSU: {!clear}, then {!apply} the entries, with every
    distance recomputed. Raises like {!apply}, before clearing. *)

val recompute : ws -> t -> unit
(** Recompute every distance from scratch by one walk down from the
    root. {!apply} already keeps distances current; this is the
    from-scratch path used as an oracle. *)

val root : t -> int

val dist : t -> float array
(** [dist.(j)] is the distance from the root to [j] along the table,
    [infinity] when the root does not reach [j]. The array is the
    table's own, kept current in place: read it, never write it. *)

val spf_parent : t -> int -> int
(** The parent of [j] on the root's shortest path: [-1] for the root
    and for nodes the root does not reach — {!Dijkstra}'s [parent]. *)

val children : t -> int -> (int * float) list
(** [(tail, cost)] of the links headed at [j], ascending by tail: the
    same list {!Topo_table.out_links} gives for an equal table. *)

val entries : t -> Topo_table.entry list
(** Every link, sorted by (head, tail), as {!Topo_table.entries}. *)
