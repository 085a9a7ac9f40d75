(** Routing parameter tables: the fractions phi_{i,dst,k} of router
    [i]'s traffic for destination [dst] forwarded over link (i, k)
    (paper Section 2.1, Property 1).

    Property 1 — phi is zero on non-links and at the destination,
    non-negative, and sums to one over the successor set — is enforced
    at every mutation; [check_property1] re-validates globally and is
    exercised by the test-suite after every heuristic step. *)

type t
(** Representation: [phi.(i).(dst)] is a [float array] indexed by
    neighbor slot, so reading a router's distribution is an array walk
    with no lists or hashing. Neighbor [s] of router [i] is the far end
    of link slot [first_slot (layout t) i + s], and a flat
    [node * node] int array maps a directed link to its slot. *)

type layout
(** Link slots number a topology's directed links [0 .. slot_count - 1]
    in {!Mdr_topology.Graph.out_csr} order: router [i]'s out-links are
    slots [first_slot i] onward, in {!neighbor_array} order. Fixed when
    the table is created, immutable, and shared by its copies and by
    the flows computed from it ({!Flows.t} keeps link flows by slot). *)

val create : Mdr_topology.Graph.t -> t
(** All fractions zero (no destination routed yet). *)

val layout : t -> layout

val slot_count : layout -> int

val first_slot : layout -> Mdr_topology.Graph.node -> int

val link_of_slot : layout -> int -> Mdr_topology.Graph.link

val slot : layout -> src:int -> dst:int -> int
(** The slot of link (src, dst); -1 when there is no such link,
    including for nodes out of range. *)

val copy : t -> t

val assign : t -> from_:t -> destinations:int list -> unit
(** Overwrite the fractions toward each of [destinations] in the first
    table with those of [from_]; both must be built over the same
    topology. *)

val topology : t -> Mdr_topology.Graph.t

val neighbor_array : t -> Mdr_topology.Graph.node -> Mdr_topology.Graph.node array
(** Out-neighbors of a node in fixed order; fraction vectors index into
    this array. *)

val row : t -> node:int -> dst:int -> float array
(** The live fractions of (node, dst) by neighbor slot, for loops that
    walk a distribution without building lists. Callers must not
    mutate it; change it with {!set_fractions} or {!set_row}. *)

val fraction : t -> node:int -> dst:int -> via:int -> float
(** 0 when [via] is not a neighbor of [node]. *)

val fractions : t -> node:int -> dst:int -> (Mdr_topology.Graph.node * float) list
(** Neighbors with non-zero fraction. *)

val set_fractions : t -> node:int -> dst:int -> (Mdr_topology.Graph.node * float) list -> unit
(** Replace the distribution for (node, dst). The list must mention
    only neighbors of [node], with non-negative entries summing to 1
    (within 1e-9) — or be empty to clear the entry.
    @raise Invalid_argument otherwise. *)

val set_row : t -> node:int -> dst:int -> lead:int -> float array -> unit
(** [set_row t ~node ~dst ~lead values] is {!set_fractions} with one
    entry per neighbor slot [s] of value [values.(s)], listed slot
    [lead] first and then the other slots in ascending order: the same
    checks, sum and renormalisation, bit for bit, with no list. Zero
    entries change nothing. [values] may be longer than the row.
    @raise Invalid_argument as {!set_fractions} does. *)

val set_single : t -> node:int -> dst:int -> via:Mdr_topology.Graph.node -> unit
(** Route (node, dst) entirely via one neighbor. *)

val clear : t -> node:int -> dst:int -> unit

val successors : t -> node:int -> dst:int -> Mdr_topology.Graph.node list
(** Neighbors carrying a positive fraction (the successor set S,
    Eq. 9). *)

val is_routed : t -> node:int -> dst:int -> bool

val validate : t -> (unit, string) result
(** Check Property 1 for every routed (node, dst) pair. *)

val successor_graph_is_acyclic : t -> dst:int -> bool
(** Whether the routing graph SG_dst implied by the successor sets is
    a DAG (paper: required for minimum delays to be approached). *)
