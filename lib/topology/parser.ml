exception Parse_error of { line : int; message : string }

let fail line message = raise (Parse_error { line; message })

let tokens_of_line raw =
  let without_comment =
    match String.index_opt raw '#' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  String.split_on_char ' ' without_comment
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let numbered_lines text =
  String.split_on_char '\n' text |> List.mapi (fun i l -> (i + 1, l))

(* A number converted to its unit by [scale] must stay finite:
   [float_of_string] also takes "nan" and "inf", and a huge capacity
   overflows once scaled. *)
let parse_float ~line what s ~scale =
  match Option.map scale (float_of_string_opt s) with
  | Some v when Float.is_finite v -> v
  | Some _ | None -> fail line (Printf.sprintf "invalid %s %S" what s)

let mbps v = v *. 1.0e6
let ms v = v /. 1000.0

let topology_of_string text =
  let lines = numbered_lines text in
  (* First pass: router names, in declaration order. *)
  let names = ref [] in
  List.iter
    (fun (line, raw) ->
      match tokens_of_line raw with
      | [ "node"; name ] ->
        if List.mem name !names then fail line ("duplicate node " ^ name);
        names := name :: !names
      | "node" :: _ -> fail line "node takes exactly one name"
      | _ -> ())
    lines;
  let g = Graph.create ~names:(Array.of_list (List.rev !names)) in
  let resolve line name =
    try Graph.node_of_name g name
    with Not_found -> fail line ("unknown node " ^ name)
  in
  (* Second pass: links. *)
  List.iter
    (fun (line, raw) ->
      match tokens_of_line raw with
      | [] | [ "node"; _ ] -> ()
      | [ "link"; a; b; cap; delay ] ->
        let capacity = parse_float ~line "capacity" cap ~scale:mbps in
        let prop_delay = parse_float ~line "delay" delay ~scale:ms in
        let va = resolve line a and vb = resolve line b in
        (try
           Graph.add_link g ~src:va ~dst:vb ~capacity ~prop_delay;
           Graph.add_link g ~src:vb ~dst:va ~capacity ~prop_delay
         with Invalid_argument msg -> fail line msg)
      | [ "oneway"; a; b; cap; delay ] ->
        let capacity = parse_float ~line "capacity" cap ~scale:mbps in
        let prop_delay = parse_float ~line "delay" delay ~scale:ms in
        (try
           Graph.add_link g ~src:(resolve line a) ~dst:(resolve line b) ~capacity
             ~prop_delay
         with Invalid_argument msg -> fail line msg)
      | directive :: _ -> fail line ("unknown directive " ^ directive))
    lines;
  g

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let topology_of_file path = topology_of_string (read_file path)

let flows_of_string g text =
  let resolve line name =
    try Graph.node_of_name g name
    with Not_found -> fail line ("unknown node " ^ name)
  in
  List.filter_map
    (fun (line, raw) ->
      match tokens_of_line raw with
      | [] -> None
      | [ "flow"; src; dst; rate ] ->
        let rate_bits = parse_float ~line "rate" rate ~scale:mbps in
        if rate_bits <= 0.0 then fail line "flow rate must be positive";
        let s = resolve line src and d = resolve line dst in
        if s = d then fail line "flow source equals destination";
        Some (s, d, rate_bits)
      | directive :: _ -> fail line ("unknown directive " ^ directive))
    (numbered_lines text)

let flows_of_file g path = flows_of_string g (read_file path)

(* Duplex pairs with equal attributes collapse into one [link] line. *)
let classify_links g =
  let seen = Hashtbl.create 32 in
  Graph.fold_links g ~init:([], []) ~f:(fun (duplex, oneway) l ->
      if Hashtbl.mem seen (l.Graph.src, l.Graph.dst) then (duplex, oneway)
      else
        match Graph.link g ~src:l.dst ~dst:l.src with
        | Some back when back.capacity = l.capacity && back.prop_delay = l.prop_delay
          ->
          Hashtbl.replace seen (l.dst, l.src) ();
          (l :: duplex, oneway)
        | Some _ | None -> (duplex, l :: oneway))

let to_string g =
  let buf = Buffer.create 1024 in
  List.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf "node %s\n" (Graph.name g v)))
    (Graph.nodes g);
  let duplex, oneway = classify_links g in
  let render keyword (l : Graph.link) =
    Buffer.add_string buf
      (Printf.sprintf "%s %s %s %g %g\n" keyword (Graph.name g l.src)
         (Graph.name g l.dst) (l.capacity /. 1.0e6) (l.prop_delay *. 1000.0))
  in
  List.iter (render "link") (List.rev duplex);
  List.iter (render "oneway") (List.rev oneway);
  Buffer.contents buf

let to_dot g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph topology {\n  node [shape=ellipse];\n";
  let duplex, oneway = classify_links g in
  let label (l : Graph.link) =
    Printf.sprintf "%gMb/s %gms" (l.capacity /. 1.0e6) (l.prop_delay *. 1000.0)
  in
  List.iter
    (fun (l : Graph.link) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -- \"%s\" [label=\"%s\"];\n" (Graph.name g l.src)
           (Graph.name g l.dst) (label l)))
    (List.rev duplex);
  List.iter
    (fun (l : Graph.link) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -- \"%s\" [dir=forward, label=\"%s\"];\n"
           (Graph.name g l.src) (Graph.name g l.dst) (label l)))
    (List.rev oneway);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
