(** Topology tables: the per-router link-state databases of PDA/MPDA.

    A table stores directed links [head -> tail] with their cost — the
    triplets [h; t; d] of the paper. The router's main table T_i and
    its merged topology are values of this type; the per-neighbor
    tables T_k^i are in-forests ({!Nbr_forest}) that speak the same
    {!entry} type.

    Links are kept as rows indexed by node id, with no hashing: each
    head's out-row ascending by tail, and each tail's in-row (the
    transpose) ascending by head. Rows are immutable lists, so reading
    one allocates nothing and {!copy} costs two array copies. Node ids
    must be non-negative; every function taking one raises
    [Invalid_argument] on a negative id. *)

type t

type entry = { head : int; tail : int; cost : float }
(** [cost = infinity] inside an LSU means "delete this link". *)

val create : unit -> t
val copy : t -> t
(** An independent table: later edits of either leave the other alone. *)

val clear : t -> unit

val set : t -> head:int -> tail:int -> cost:float -> unit
(** Add or change a link. [cost] must be finite and non-negative; zero
    is accepted ({!Incr_spf} answers a zero-cost edge with a full run).
    Raises [Invalid_argument] otherwise, or on a self-loop. *)

val remove : t -> head:int -> tail:int -> unit

val cost : t -> head:int -> tail:int -> float option

val apply_entry : t -> entry -> unit
(** Apply one LSU entry: set when the cost is finite, remove when it is
    [infinity]. *)

val entries : t -> entry list
(** All links, sorted by (head, tail) for deterministic output. *)

val set_row : t -> head:int -> (int * float) list -> entry list
(** [set_row t ~head row] makes [row], (tail, cost) ascending by tail,
    the out-row of [head] and returns the net changes, ascending by
    tail, as {!diff} would give them. A row that is not strictly
    ascending, holds a negative tail or [head] itself, or a cost
    {!set} would refuse raises [Invalid_argument] and leaves the table
    unchanged. *)

val out_links : t -> head:int -> (int * float) list
(** (tail, cost) of links headed at [head], ascending by tail. The
    table's own row: no allocation. *)

val in_links : t -> tail:int -> (int * float) list
(** (head, cost) of links into [tail], ascending by head: the transpose
    row, as cheap as {!out_links}. *)

val nodes : t -> int list
(** Every node appearing as a head or tail, sorted. *)

val size : t -> int

val diff : old_table:t -> new_table:t -> entry list
(** LSU entries that transform [old_table] into [new_table]:
    adds/changes carry the new cost, deletions carry [infinity]. *)

val equal : t -> t -> bool
