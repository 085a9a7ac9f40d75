(** Deterministic (ascending-key) iteration over [Hashtbl.t].

    Bucket order in [Hashtbl] depends on insertion history and resizes,
    so iterating it directly can leak layout into protocol state and
    break seed-reproducibility. These wrappers snapshot the bindings
    and visit them sorted by key (polymorphic [compare]).

    Note: bindings are snapshotted before the callback runs, so unlike
    [Hashtbl.iter] it is safe to add or remove keys from the table
    while iterating. If a key is bound multiple times, only the most
    recent binding is visited (as with [Hashtbl.replace]-style use). *)

val keys : ('a, 'b) Hashtbl.t -> 'a list
(** All distinct keys, ascending. *)

val bindings : ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** All (key, most-recent-value) pairs, ascending by key. *)

val iter : ('a -> 'b -> unit) -> ('a, 'b) Hashtbl.t -> unit
(** [iter f t] calls [f k v] in ascending key order. *)

val fold : ('a -> 'b -> 'acc -> 'acc) -> ('a, 'b) Hashtbl.t -> 'acc -> 'acc
(** [fold f t init] folds in ascending key order. *)
