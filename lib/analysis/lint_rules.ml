(* Repo-specific per-file static analysis over our own OCaml sources.

   The rules encode invariants the simulator's correctness depends on
   but the type checker cannot see:

   - [float-compare]: raw [=] / [<>] / [compare] on floats. Polymorphic
     equality disagrees with IEEE on nan, and exact equality of
     computed floats is a latent bug; use [Float.equal] (sentinels) or
     [Mdr_util.Float_cmp] (computed values).
   - [hashtbl-iteration]: [Hashtbl.iter]/[Hashtbl.fold] in protocol and
     simulation code ([lib/routing], [lib/netsim], [lib/eventsim],
     [lib/faults]). Bucket order depends on insertion history; if it
     leaks into router state or event scheduling, runs stop being a
     deterministic function of the seed. Use [Mdr_util.Sorted_tbl].
   - [catch-all-handler]: [try ... with _ ->] (or a catch-all variable)
     in protocol code swallows assertion failures and protocol
     invariant violations; match specific exceptions.
   - [obj-magic]: [Obj.magic] anywhere.
   - [stdout-in-lib]: printing to stdout from inside [lib/]; libraries
     must return or log data, only binaries own the terminal.

   The pass parses each .ml file with compiler-libs and walks the
   Parsetree with [Ast_iterator]; it needs no type information, so the
   float rule is syntactic: a comparison is flagged when either operand
   is evidently a float (float literal, float arithmetic, a known
   float constant, or [float_of_int ...]).

   Every rule has an allowlist at [lint/<rule>.allow] ([path] or
   [path:line] lines, [#] comments) so deliberate exceptions are
   recorded in-tree and reviewed like code. Cross-module rules —
   domain races, determinism taint into fingerprints, crash-safety of
   the journal/snapshot write paths — are [Check_rules], not here:
   this pass is deliberately per-file and syntactic. *)

type violation = Report.finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

type rule = {
  name : string;
  what : string;  (* one-line description for reports *)
  scope : string list;  (* directory prefixes; [] = everywhere scanned *)
}

let rules =
  [
    {
      name = "float-compare";
      what = "raw =/<>/compare on floats; use Float.equal or Mdr_util.Float_cmp";
      scope = [];
    };
    {
      name = "hashtbl-iteration";
      what =
        "Hashtbl.iter/fold in protocol or sim code; use Mdr_util.Sorted_tbl for \
         deterministic order";
      scope = [ "lib/routing"; "lib/netsim"; "lib/eventsim"; "lib/faults" ];
    };
    {
      name = "catch-all-handler";
      what = "catch-all exception handler in protocol code; match specific exceptions";
      scope = [ "lib/routing"; "lib/faults" ];
    };
    { name = "obj-magic"; what = "Obj.magic defeats the type system"; scope = [] };
    {
      name = "stdout-in-lib";
      what = "printing to stdout from a library; return strings or use stderr";
      scope = [ "lib" ];
    };
  ]

let find_rule name = List.find (fun r -> r.name = name) rules

(* --- Scoping ---------------------------------------------------------- *)

let in_scope rule ~file =
  let file = Source_walk.normalize file in
  rule.scope = []
  || List.exists
       (fun prefix ->
         let p = prefix ^ "/" in
         String.length file >= String.length p
         && String.sub file 0 (String.length p) = p)
       rule.scope

(* --- The AST walk ----------------------------------------------------- *)

open Parsetree

let loc_of (l : Location.t) =
  (l.loc_start.pos_lnum, l.loc_start.pos_cnum - l.loc_start.pos_bol)

let longident e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some txt | _ -> None

let float_constants =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float"; "min_float" ]

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-." ]

(* Syntactic evidence that [e] has type float. Deliberately shallow:
   no type inference, just the shapes that occur in practice. *)
let is_floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt = Longident.Lident name; _ } -> List.mem name float_constants
  | Pexp_ident { txt = Longident.Ldot (Longident.Lident ("Float" | "Stdlib"), name); _ }
    ->
    List.mem name float_constants
  | Pexp_apply (f, _) -> (
    match longident f with
    | Some (Longident.Lident op) when List.mem op float_ops -> true
    | Some (Longident.Lident "float_of_int") -> true
    | Some (Longident.Ldot (Longident.Lident "Float", fn)) ->
      (* Float.min, Float.abs, Float.of_int, ... return floats;
         predicates and conversions out of float do not. *)
      not
        (List.mem fn
           [ "equal"; "compare"; "is_nan"; "is_finite"; "is_integer"; "to_int"; "to_string" ])
    | _ -> false)
  | Pexp_constraint
      (_, { ptyp_desc = Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []); _ }) ->
    true
  | _ -> false

let is_catch_all case =
  (match case.pc_lhs.ppat_desc with
  | Ppat_any -> true
  | Ppat_var _ -> true
  | _ -> false)
  && case.pc_guard = None

let hashtbl_target = function
  | Longident.Ldot (Longident.Lident "Hashtbl", ("iter" | "fold" as fn)) -> Some fn
  | _ -> None

let stdout_printer = function
  | Longident.Lident
      (( "print_endline" | "print_string" | "print_newline" | "print_int"
       | "print_float" | "print_char" ) as fn) ->
    Some fn
  | Longident.Ldot (Longident.Lident "Printf", "printf") -> Some "Printf.printf"
  | Longident.Ldot (Longident.Lident "Format", ("printf" | "print_string" as fn)) ->
    Some ("Format." ^ fn)
  | _ -> None

let scan_structure ~file structure =
  let out = ref [] in
  let report rule_name loc message =
    let rule = find_rule rule_name in
    if in_scope rule ~file then begin
      let line, col = loc_of loc in
      out :=
        { rule = rule_name; file = Source_walk.normalize file; line; col; message }
        :: !out
    end
  in
  let check_expr e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> (
      match longident f with
      | Some (Longident.Lident (("=" | "<>" | "==" | "!=") as op))
        when List.exists (fun (_, a) -> is_floatish a) args ->
        report "float-compare" e.pexp_loc
          (Printf.sprintf "float compared with (%s)" op)
      | Some
          (( Longident.Lident "compare"
           | Longident.Ldot (Longident.Lident "Stdlib", "compare") ))
        when List.exists (fun (_, a) -> is_floatish a) args ->
        report "float-compare" e.pexp_loc "polymorphic compare on a float"
      | Some _ | None -> ())
    | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Obj", "magic"); _ } ->
      report "obj-magic" e.pexp_loc "Obj.magic"
    | Pexp_ident { txt; _ } -> (
      (* The ident node is reached whether the function is applied or
         passed as a value, so applied uses are not reported twice. *)
      (match hashtbl_target txt with
      | Some fn ->
        report "hashtbl-iteration" e.pexp_loc
          (Printf.sprintf "Hashtbl.%s iterates in bucket order" fn)
      | None -> ());
      match stdout_printer txt with
      | Some fn -> report "stdout-in-lib" e.pexp_loc (fn ^ " writes to stdout")
      | None -> ())
    | Pexp_try (_, cases) ->
      List.iter
        (fun c ->
          if is_catch_all c then
            report "catch-all-handler" c.pc_lhs.ppat_loc
              "catch-all exception handler")
        cases
    | _ -> ());
    ()
  in
  let super = Ast_iterator.default_iterator in
  let iter =
    {
      super with
      expr =
        (fun self e ->
          check_expr e;
          super.expr self e);
    }
  in
  iter.structure iter structure;
  List.rev !out

(* --- Driver ----------------------------------------------------------- *)

let scan_file ?path ~file () =
  (* [path]: where to read the source (defaults to [file]); [file]: the
     root-relative name used for scoping and reporting. *)
  let path = match path with Some p -> p | None -> file in
  scan_structure ~file (Source_walk.parse_file path)

type stale = Report.stale = {
  stale_rule : string;
  stale_file : string;
  stale_line : int option;
}

type report = {
  files_scanned : int;
  violations : violation list;  (* after allowlisting *)
  suppressed : int;  (* allowlisted hits *)
  stale_allow : stale list;  (* allowlist entries that matched nothing *)
}

let run ?(dirs = Source_walk.default_dirs) ?(allow_dir = "lint") ~root () =
  let files = Source_walk.files ~dirs ~root () in
  let all = List.concat_map (fun (path, file) -> scan_file ~path ~file ()) files in
  let violations, suppressed, stale_allow =
    Report.apply_allowlists
      ~allow_dir:(Filename.concat root allow_dir)
      ~rule_names:(List.map (fun r -> r.name) rules)
      all
  in
  { files_scanned = List.length files; violations; suppressed; stale_allow }

(* --- Rendering --------------------------------------------------------- *)

let to_report r =
  {
    Report.tool = "lint";
    files_scanned = r.files_scanned;
    findings = r.violations;
    suppressed = r.suppressed;
    stale_allow = r.stale_allow;
    rule_infos =
      List.map (fun ru -> { Report.rule_id = ru.name; about = ru.what }) rules;
  }

let render r = Report.render (to_report r)
let to_json r = Report.to_json (to_report r)
let to_sarif r = Report.to_sarif (to_report r)
