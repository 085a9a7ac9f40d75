(** Network topology: named routers joined by point-to-point links.

    Links are directed internally — a bidirectional physical link is
    two directed links, possibly with different attributes, exactly as
    in the paper's model ("each link is bidirectional with possibly
    different costs in each direction"). Nodes are dense integers
    [0 .. node_count - 1] so algorithm state can live in arrays. *)

type node = int

type link = {
  src : node;
  dst : node;
  capacity : float;  (** bits per second *)
  prop_delay : float;  (** propagation delay, seconds *)
}

type t

val create : names:string array -> t
(** A topology with the given routers and no links. Names must be
    distinct and non-empty. *)

val node_count : t -> int
val link_count : t -> int

val name : t -> node -> string
val node_of_name : t -> string -> node
(** @raise Not_found if no router has that name. *)

val add_link : t -> src:node -> dst:node -> capacity:float -> prop_delay:float -> unit
(** Add one directed link. @raise Invalid_argument on self-loops,
    duplicate links, or non-positive capacity. *)

val add_duplex :
  t -> string -> string -> capacity:float -> prop_delay:float -> unit
(** Add both directions between two named routers, same attributes. *)

val link : t -> src:node -> dst:node -> link option
val link_exn : t -> src:node -> dst:node -> link

val neighbors : t -> node -> node list
(** Outgoing neighbors, in insertion order. *)

val out_links : t -> node -> link list

val links : t -> link list
(** All directed links, in insertion order. *)

val duplex_pairs : t -> (node * node) list
(** The links present in both directions, one [(a, b)] with [a < b]
    per pair, in the insertion order of the [a -> b] link. A one-way
    link is left out. *)

val fold_links : t -> init:'a -> f:('a -> link -> 'a) -> 'a

val nodes : t -> node list

type csr = {
  row : int array;  (** length [node_count + 1] *)
  links : link array;  (** links of node [u] occupy [row.(u) .. row.(u+1)-1] *)
}
(** Flat adjacency for hot loops (no list or closure allocation per
    traversal). Views are cached and rebuilt only when links are added;
    the returned arrays must not be mutated. *)

val out_csr : t -> csr
(** Out-links per source, insertion order — the order {!out_links}
    yields. *)

val in_csr : t -> csr
(** Links *into* each node, in the order the reverse traversal of
    {!out_links} discovers them (the reverse link of each out-link,
    when present). [links.(e).src] is the predecessor. *)

val is_symmetric : t -> bool
(** Every directed link has a reverse link (attributes may differ). *)
