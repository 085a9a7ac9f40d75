(** Custom per-file static analysis over the repo's own sources.

    Parses each [.ml] file with compiler-libs, walks the Parsetree, and
    enforces the repo-specific rules described in the implementation
    (float equality, deterministic hash-table iteration, catch-all
    handlers, [Obj.magic], stdout printing in libraries). No type
    information is used, so the float rule is syntactic and
    deliberately conservative.

    Cross-module rules (domain races, determinism taint, crash-safety)
    are {!Check_rules}; file discovery and parsing are shared with it
    through {!Source_walk}, and reports through {!Report}.

    Allowlists live at [<root>/lint/<rule>.allow]; each line is a
    [path] (whole file) or [path:line] entry relative to the root, [#]
    starts a comment. *)

type violation = Report.finding = {
  rule : string;
  file : string;  (** relative to the scan root *)
  line : int;
  col : int;
  message : string;
}

type rule = {
  name : string;
  what : string;
  scope : string list;  (** directory prefixes; [] = everywhere scanned *)
}

val rules : rule list

val scan_file : ?path:string -> file:string -> unit -> violation list
(** Lint a single file. [path] is where the source is read (defaults
    to [file]); [file] is the root-relative name used for rule scoping
    and in reports. No allowlisting is applied. Raises
    {!Source_walk.Parse_failure} if the file does not parse. *)

type stale = Report.stale = {
  stale_rule : string;
  stale_file : string;  (** as written in the .allow file, normalized *)
  stale_line : int option;
}
(** An allowlist entry that suppressed nothing in this scan: the code
    it excused was fixed, moved or renamed. Stale entries are failures
    too — left in place they would silently excuse the next violation
    at that location. *)

type report = {
  files_scanned : int;
  violations : violation list;
  suppressed : int;  (** allowlisted hits *)
  stale_allow : stale list;  (** entries that matched nothing *)
}

val run : ?dirs:string list -> ?allow_dir:string -> root:string -> unit -> report
(** Scan every [.ml] file under [root/dirs] (default
    {!Source_walk.default_dirs}: lib, bin, examples, test), apply
    allowlists from [root/allow_dir] (default [lint]), and report
    violations with paths relative to [root]. *)

val to_report : report -> Report.t
(** The shared-report view ([tool = "lint"]), for SARIF emission and
    uniform rendering. *)

val render : report -> string
val to_json : report -> string
val to_sarif : report -> string
