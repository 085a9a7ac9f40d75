(** The write-ahead journal: an append-only file of {!Codec} records,
    one per accepted update, written and flushed {e before} the update
    is applied in memory. The header after {!Codec}'s magic and
    version holds the journal's base: the sequence number (a
    {!Mdr_util.Bin} u64) of the state its first record follows, which
    is the seq of the snapshot taken when the journal was reset. Each
    record's payload is the update's sequence number (u64) followed
    by its {!Update} encoding, so replay can skip records a snapshot
    already covers and detect gaps, and a restore can tell from the
    base alone that a state older than it cannot be brought forward,
    even when no record follows.

    Crash discipline:
    - A fresh journal is created atomically (written to a temp file,
      then renamed), so a kill during creation never leaves a
      half-written header at the final path.
    - A kill during {!append} leaves at most one torn record at the
      tail. {!replay} skips it with a warning on stderr, and
      {!open_append} truncates it away before any further append, so
      the torn bytes can never corrupt later records.
    - Records must be contiguous; a clean record whose sequence number
      breaks the chain means real corruption and raises. *)

type t

val create : ?fsync:bool -> ?base:int -> path:string -> unit -> t
(** Create (or overwrite) an empty journal at [path] whose records
    follow the state at seq [base] (default 0), and open it for
    appending. [fsync] (default false) additionally [fsync]s after
    every append — survival of an OS crash rather than just a process
    kill. *)

val append : ?torn_after:int -> t -> seq:int -> payload:string -> unit
(** Durably append one record, then return. [torn_after] is the chaos
    harness's fault injector: write only that many bytes of the framed
    record (clamped to [1 .. len - 1]) — a simulated kill mid-write —
    and mark the journal dead; any further append raises. *)

val records : t -> int
(** Records appended or replayed through this handle. *)

val close : t -> unit

type replay = {
  base : int;  (** the seq the journal's first record follows *)
  entries : (int * string) list;  (** (seq, update payload), journal order *)
  torn : bool;  (** a torn trailing record was skipped *)
  clean_bytes : int;  (** file prefix covered by clean records *)
}

val replay : path:string -> replay
(** Read every clean record. A torn tail is skipped with a warning on
    stderr. @raise Failure on a missing file or corrupt header. *)

val open_append : ?fsync:bool -> path:string -> unit -> t * replay
(** {!replay}, then truncate any torn tail and open for appending. *)
