(** Topology tables: the per-router link-state databases of PDA/MPDA.

    A table stores directed links [head -> tail] with their cost — the
    triplets [h; t; d] of the paper. The router's main table T_i and
    its merged topology are values of this type; the per-neighbor
    tables T_k^i are in-forests ({!Nbr_forest}) that speak the same
    {!entry} type. *)

type t

type entry = { head : int; tail : int; cost : float }
(** [cost = infinity] inside an LSU means "delete this link". *)

val create : unit -> t
val copy : t -> t
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

val out_links : t -> head:int -> (int * float) list
(** (tail, cost) of links headed at [head], ascending by tail. *)

val nodes : t -> int list
(** Every node appearing as a head or tail, sorted. *)

val size : t -> int

type csr = {
  row : int array;  (** length n+1; edges of head [h] occupy [row.(h) .. row.(h+1)-1] *)
  dst : int array;
  cost : float array;
}
(** Flat adjacency view for hot loops: per-head edges sorted by tail,
    the same order {!out_links} produces, without per-visit list
    allocation or hashing. *)

val csr : t -> n:int -> csr
(** The CSR view restricted to heads in [0, n)]. The returned arrays
    must not be mutated by callers and are valid snapshots only until
    the next mutation of this table; a mutation of a {!copy} never
    touches them.

    The view is cached per table and kept across mutations, so the
    per-LSU shortest-path repair pays neither a rebuild nor a sort:
    - a cost change ({!set} on an existing link) to a view with no
      pending edits patches its cost cell in place;
    - any other change (a new link, {!remove}, or a cost change behind
      pending edits) is logged, and the next read merges the log into
      fresh arrays in one pass over the view.
    A view is rebuilt from {!entries} on the first read, on a read with
    another [n], after {!clear}, and once its log holds as many edits
    as it has edges. Every read equals, element for element, the view
    rebuilt from scratch. *)

val csr_in : t -> n:int -> csr
(** The transpose of {!csr}: [row] is indexed by tail and each row
    lists the in-edges' heads (ascending) with their costs. Only edges
    with both endpoints in [0, n)] appear. Cached, patched and merged
    exactly like the forward view. *)

val diff : old_table:t -> new_table:t -> entry list
(** LSU entries that transform [old_table] into [new_table]:
    adds/changes carry the new cost, deletions carry [infinity]. *)

val equal : t -> t -> bool
