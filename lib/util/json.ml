type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Containers at depth 0 and 1 print one element per line, indented
   two spaces per level; deeper ones print inline. *)
let rec emit b depth v =
  let items opening closing emit_item l =
    let multiline = depth < 2 && l <> [] in
    let newline d = Buffer.add_string b ("\n" ^ String.make (2 * d) ' ') in
    Buffer.add_char b opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        if multiline then newline (depth + 1) else if i > 0 then Buffer.add_char b ' ';
        emit_item x)
      l;
    if multiline then newline depth;
    Buffer.add_char b closing
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float x when Float.is_finite x -> Printf.bprintf b "%.6g" x
  | Float _ -> Buffer.add_string b "null"
  | String s -> escape b s
  | List l -> items '[' ']' (emit b (depth + 1)) l
  | Obj fields ->
      items '{' '}'
        (fun (k, x) ->
          escape b k;
          Buffer.add_string b ": ";
          emit b (depth + 1) x)
        fields

let to_string v =
  let b = Buffer.create 4096 in
  emit b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let host () =
  Obj
    [
      ("cpus", Int (Domain.recommended_domain_count ()));
      ("ocaml", String Sys.ocaml_version);
      ("mdr_jobs", Int (Pool.default_jobs ()));
    ]

let report ~benchmark ~params ~rows ~gates =
  Obj
    [
      ("benchmark", String benchmark);
      ("host", host ());
      ("params", Obj params);
      ("rows", List rows);
      ("gates", List gates);
    ]
