(** Length-prefixed framing over a byte-stream transport.

    The stream starts with an 8-byte greeting ({!Codec.header}: magic
    ["MDRW"], version) and then carries {!Codec.frame} records:
    [len:u32 crc:word32 payload] — the exact on-disk journal framing,
    reused on the wire so one codec is hardened once.

    {!decoder} is incremental and hostile-input safe: chunk boundaries
    are arbitrary, declared lengths are capped at {!max_payload}
    before any buffering decision, and the first corruption (bad
    magic, implausible length, CRC mismatch) is {e sticky} — after a
    mid-stream flip there is no way to know where the next frame
    starts, so the only safe reaction is to drop the connection. *)

val magic : string
val version : int
val max_payload : int
(** 64 KiB — far above any protocol message, far below harm. *)

val greeting : string
(** First bytes each side sends on a fresh connection. *)

val encode : string -> string
(** Frame one payload. @raise Invalid_argument if the payload is
    empty or exceeds {!max_payload}. *)

type decoder

val decoder : unit -> decoder
val feed : decoder -> string -> unit
(** Append received bytes. Input after a corruption is discarded. *)

val next : decoder -> [ `Frame of string | `Need_more | `Corrupt of string ]
(** Decode the next complete frame. [`Corrupt] is sticky. *)

val buffered : decoder -> int
(** Undecoded bytes held (diagnostics). *)
