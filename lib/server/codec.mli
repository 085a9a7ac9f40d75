(** Binary framing for the route-server's durable files.

    Every file starts with an 8-byte header — a 4-character magic and a
    {!Mdr_util.Bin} u32 format version — followed by length-prefixed,
    CRC-guarded records:

    {v
      record := len:u32  crc:word32  payload:len bytes
    v}

    where [crc] is the IEEE CRC-32 of the payload. The reader
    classifies anything that does not parse cleanly as {e torn} rather
    than raising: a record cut short by a crash (short header, short
    payload, or a checksum mismatch from a partial overwrite) is the
    expected end-state of a killed writer, and the journal/snapshot
    layers decide how tolerant to be of it. *)

val crc32 : string -> int
(** IEEE 802.3 CRC-32 (polynomial [0xEDB88320], reflected), as an
    unsigned 32-bit value. *)

val header_len : int
(** 8 bytes: magic + version. *)

val header : magic:string -> version:int -> string
(** [magic] must be exactly 4 characters. *)

val check_header : string -> magic:string -> (int, string) result
(** Validate the first {!header_len} bytes of a file; [Ok version] or
    a human-readable reason ([Error]). *)

val frame : string -> string
(** One complete record for the given payload. *)

type read =
  | Record of string  (** a complete, checksum-clean record *)
  | Torn of string  (** truncated or corrupt tail; the reason *)
  | Eof  (** clean end of file *)

val unframe :
  pos:int -> what:string -> min_len:int -> max_len:int -> string ->
  (string -> int -> int -> string option) -> read
(** [unframe ~pos ~what ~min_len ~max_len head payload] is the check
    every record and frame reader shares ([what] names the record in
    the reasons). [head] holds at least a record's first 8 bytes, [len]
    and [crc], from byte [pos]. A [len] outside
    [[min_len, max_len]] is [Torn] before anything of that size is
    read; otherwise [payload head (pos + 8) len] supplies the payload,
    which is [Record] if its CRC matches and [Torn] if not. [Eof] means
    [payload] returned [None]: its bytes have not all arrived. *)

val read_record : in_channel -> read
(** Read one record at the channel's current position. After [Torn] the
    channel position is unspecified; callers stop reading. A declared
    length that is implausible or exceeds the bytes remaining in the
    file is classified [Torn] {e before} any allocation, so a hostile
    or bit-flipped length word cannot drive a giant [Bytes.create].
    Lengths are capped at [2^30 - 1], the largest {!frame} writes. *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte of the string, however many calls it takes. *)
