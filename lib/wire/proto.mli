(** The wire protocol's message vocabulary, one message per frame.

    A {!Mdr_util.Bin} format like {!Mdr_server.Update} (which it
    embeds for [Submit]): a u8 tag, then the fields. Ids, epochs and
    nonces are u32, sequence numbers u64, delays f64, strings u16-length.
    Client tags live in [0x01 ..]; server tags in [0x41 ..] so a
    misdirected frame can never decode as the other side's message.

    Protocol v2 is multi-writer: every session is bound to a client id
    ([>= 1]; 0 is the server's trusted local path), acknowledgements
    name the client's own sequence space, and submissions carry the
    ownership epoch the client writes under (see {!Mdr_server.Server}).

    Decoding is exact-length and total: any payload that is not
    precisely one well-formed message raises {!Corrupt} — never any
    other exception, and never a silent partial parse. A decoder
    accepts exactly the messages its encoder writes: both check the
    codec's field ranges and the rules below them (client ids and the
    sequence numbers of [Submit], [Ack], [Fenced] and [Throttled] start
    at 1, a granted epoch at 1, a [Claim] names at least one pair,
    delays are finite and [>= 0]), so whatever the server decodes it
    can also answer. The encoders raise [Invalid_argument] on a message
    that breaks them. *)

exception Corrupt of string

type scope = All | Pairs of (int * int) list
(** What a [Claim] asks for: every duplex pair, or a specific list. *)

type client_msg =
  | Hello of { client : int; last_acked : int }
      (** open/resume a session as [client]; [last_acked] is the
          highest own-space seq this client has seen acknowledged *)
  | Claim of { scope : scope }
      (** request ownership of [scope] under a fresh epoch *)
  | Submit of { seq : int; epoch : int; update : Mdr_server.Update.t }
      (** the client's update number [seq] (per-client, contiguous),
          written under [epoch] (0 = never claimed) *)
  | Ping of { nonce : int }  (** keepalive; answered with [Pong] *)
  | Get_fingerprint
  | Bye  (** orderly close *)

type server_msg =
  | Welcome of { session : int; client : int; seq : int; epoch : int }
      (** reply to [Hello]: [client]'s durable high-water mark [seq]
          (resume from [seq + 1]) and its last granted [epoch] (0 =
          never claimed; a nonzero value makes re-claiming on resume
          unnecessary) *)
  | Granted of { epoch : int }  (** reply to [Claim] *)
  | Ack of { client : int; seq : int }
      (** [client]'s update [seq] is durable; re-sent verbatim for
          duplicates *)
  | Reject of { seq : int; reason : string }
      (** update [seq] is invalid or out of order; not applied.
          [seq = 0] rejects a non-Submit request (e.g. a bad Claim). *)
  | Fenced of { seq : int; held : int; current : int }
      (** update [seq] touched a pair owned under epoch [current],
          which the presented epoch [held] does not meet. The client is
          a zombie writer and must stop, not retry. *)
  | Throttled of { seq : int; retry_after : float }
      (** update [seq] was shed by the client's rate limiter; resend
          no sooner than [retry_after] seconds from now *)
  | Busy of { retry_after : float; reason : string }
      (** the server refused the session (table full, quarantine);
          redial no sooner than [retry_after] seconds from now *)
  | Shutdown  (** server-side orderly close (graceful shutdown) *)
  | Pong of { nonce : int }
  | Fingerprint of string  (** reply to [Get_fingerprint] *)

val encode_client : client_msg -> string
val decode_client : string -> client_msg
val encode_server : server_msg -> string
val decode_server : string -> server_msg

val describe_client : client_msg -> string
val describe_server : server_msg -> string
