(** The route-server's incremental input language: the three topology
    mutations a deployed router ingests continuously. Updates are what
    the write-ahead journal records, so their encoding is a versioned
    {!Mdr_util.Bin} format (a u8 tag, u32 node ids, an f64 cost)
    rather than [Marshal] — a journal must stay readable across
    builds. *)

type t =
  | Set_cost of { src : int; dst : int; cost : float }
      (** the measured cost of the directed link [src -> dst] changed *)
  | Link_down of { a : int; b : int }  (** duplex failure *)
  | Link_up of { a : int; b : int; cost : float }
      (** duplex restoration, both directions at [cost] *)

exception Corrupt of string
(** A payload that passed the journal's CRC but does not decode — a
    format-version mismatch, not a torn write. *)

val of_procfault : Mdr_faults.Procfault.update -> t
(** The fault generator's seeded update in the server's input language. *)

val encode : t -> string

val decode : string -> t
(** @raise Corrupt on an unknown tag, a node id outside the u32 range,
    or a payload that is not exactly one update. *)

val add : Buffer.t -> t -> unit
(** {!encode} into a buffer, for formats that embed an update. *)

val get : Mdr_util.Bin.reader -> t
(** Read one embedded update. @raise Mdr_util.Bin.Malformed *)

val validate : Mdr_topology.Graph.t -> t -> unit
(** Updates must name links the topology actually has (both directions
    for duplex events) and carry finite positive costs.
    @raise Invalid_argument otherwise. *)

(** {1 Journal entries}

    Since journal format v2 every record carries its writer: which
    client submitted it, at which per-client sequence number, under
    which ownership epoch. Restore rebuilds every client's durable
    high-water mark and the claim table from these envelopes alone. *)

type entry =
  | Apply of { client : int; seq : int; epoch : int; update : t }
      (** [client]'s [seq]-th accepted update, admitted under [epoch]
          (0 = the unfenced local path) *)
  | Claim of { client : int; epoch : int; pairs : (int * int) list }
      (** [client] took ownership of the normalized duplex [pairs]
          under the new [epoch] *)

val touched : t -> int * int
(** The normalized duplex pair [(min, max)] an update writes — the unit
    of ownership epoch fencing is checked against. *)

val encode_entry : entry -> string

val decode_entry : string -> entry
(** @raise Corrupt on an unknown tag or malformed envelope, including a
    bare {!encode}d update (the v1 record format, which journal replay
    refuses by version before any entry is decoded). *)

val describe : Mdr_topology.Graph.t -> t -> string
