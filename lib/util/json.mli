(** JSON values and the one printer behind every [BENCH_*.json]
    report, so all of them share one record shape ({!report}). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** printed with 6 significant digits; NaN and infinities print as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields print in list order *)

val to_string : t -> string
(** The value as JSON text ending in a newline. The top level and its
    direct members print one element per line; anything nested deeper
    (a report row, say) prints on one line. Strings are escaped per
    RFC 8259. *)

val host : unit -> t
(** The machine a report was made on: [cpus] (the OCaml runtime's
    recommended domain count), [ocaml] ([Sys.ocaml_version]) and
    [mdr_jobs] (the [MDR_JOBS] knob as {!Pool.default_jobs} reads it). *)

val report : benchmark:string -> params:(string * t) list -> rows:t list -> gates:t list -> t
(** The benchmark record: [{"benchmark", "host", "params", "rows",
    "gates"}], with {!host} filled in. *)
