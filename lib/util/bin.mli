(** The one byte codec behind every durable and wire format: the
    router snapshot, the server snapshot payload, updates and journal
    entries, the journal and file headers, record framing and the wire
    protocol.

    Fields are big-endian. Each integer kind has one range, the
    non-negative OCaml ints its width can carry on every platform, and
    the writer and the reader both check it: the writer raises
    [Invalid_argument] on a value outside it, the reader raises
    {!Malformed} on bytes that hold one. So a decoder built from these
    readers accepts exactly the values the matching encoder writes.

    {v
      u8      1 byte   [0, 255]
      u16     2 bytes  [0, 65535]
      u32     4 bytes  [0, 2^30 - 1]   (max_int of 32-bit OCaml)
      word32  4 bytes  [0, 2^32 - 1]   (a CRC-32, or a length not yet trusted)
      u64     8 bytes  [0, 2^62 - 1]   (max_int of 64-bit OCaml)
      f64     8 bytes  any float, as its IEEE 754 bits
      str     a u16 length, then that many bytes
      list    a count (u32 unless given), then that many elements
    v} *)

exception Malformed of string
(** Bytes that no writer of the format produces: too few, a field
    outside its kind's range, or (at {!finish}) too many. *)

val malformed : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted reason. *)

val max_u32 : int
(** [2^30 - 1]. *)

(** {1 Writing} *)

val encode : int -> (Buffer.t -> unit) -> string
(** [encode size write] runs [write] on a fresh buffer of initial
    [size] and returns its bytes. *)

val add_u8 : Buffer.t -> int -> unit
val add_u16 : Buffer.t -> int -> unit
val add_u32 : Buffer.t -> int -> unit
val add_u64 : Buffer.t -> int -> unit
val add_f64 : Buffer.t -> float -> unit
val add_word32 : Buffer.t -> int -> unit

val add_str : Buffer.t -> string -> unit
(** @raise Invalid_argument on a string longer than 65535 bytes. *)

val add_list :
  ?count:(Buffer.t -> int -> unit) -> Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** The list's length written with [count] (default {!add_u32}), then
    each element. *)

(** {1 Reading} *)

type reader
(** A cursor over a string; every read is bounds-checked. *)

val reader : ?pos:int -> string -> reader
(** A cursor at byte [pos] of the string (default its first). *)

val decode : string -> (reader -> 'a) -> 'a
(** [decode s read] reads one value from the whole of [s]: {!finish}
    after [read]. *)

val get_u8 : reader -> int
val get_u16 : reader -> int
val get_u32 : reader -> int
val get_u64 : reader -> int
val get_f64 : reader -> float
val get_word32 : reader -> int
val get_str : reader -> string

val get_bytes : reader -> int -> string
(** The next [n] bytes, uninterpreted. *)

val get_rest : reader -> string
(** Every byte left, possibly none. *)

val get_list : ?count:(reader -> int) -> reader -> (reader -> 'a) -> 'a list
(** A count read with [count] (default {!get_u32}), then that many
    elements in order. Elements are read one at a time, so a hostile
    count fails at the first missing byte rather than allocating. *)

val finish : reader -> unit
(** @raise Malformed unless every byte was read. *)
