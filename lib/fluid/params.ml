module Graph = Mdr_topology.Graph

type layout = {
  n : int;
  csr : Graph.csr;  (* the topology's out-links when the table was made *)
  slot_of : int array;  (* slot_of.(i * n + k): slot of link (i, k), or -1 *)
}

type t = {
  topo : Graph.t;
  layout : layout;
  nbrs : int array array;  (* nbrs.(i).(s): far end of slot [first i + s] *)
  phi : float array array array;  (* phi.(i).(dst).(s) *)
}

let tolerance = 1e-9

let create topo =
  let n = Graph.node_count topo in
  let csr = Graph.out_csr topo in
  let slot_of = Array.make (n * n) (-1) in
  let nbrs =
    Array.init n (fun i ->
        let first = csr.row.(i) in
        Array.init (csr.row.(i + 1) - first) (fun s ->
            let k = csr.links.(first + s).dst in
            slot_of.((i * n) + k) <- first + s;
            k))
  in
  let phi =
    Array.init n (fun i -> Array.init n (fun _ -> Array.make (Array.length nbrs.(i)) 0.0))
  in
  { topo; layout = { n; csr; slot_of }; nbrs; phi }

let copy t =
  { t with phi = Array.map (Array.map Array.copy) t.phi }

let assign t ~from_ ~destinations =
  if t.topo != from_.topo && Graph.node_count t.topo <> Graph.node_count from_.topo
  then invalid_arg "Params.assign: topology mismatch";
  List.iter
    (fun dst ->
      for i = 0 to t.layout.n - 1 do
        let row = t.phi.(i).(dst) in
        Array.blit from_.phi.(i).(dst) 0 row 0 (Array.length row)
      done)
    destinations

let topology t = t.topo

let layout t = t.layout

let slot_count l = Array.length l.csr.links

let first_slot l node = l.csr.row.(node)

let link_of_slot l e = l.csr.links.(e)

let slot l ~src ~dst =
  if src < 0 || src >= l.n || dst < 0 || dst >= l.n then -1
  else l.slot_of.((src * l.n) + dst)

let neighbor_array t node = t.nbrs.(node)

let row t ~node ~dst = t.phi.(node).(dst)

(* The neighbor slot of [via] at [node], or -1. *)
let nbr_slot t ~node ~via =
  if node < 0 || node >= t.layout.n then invalid_arg "index out of bounds";
  match slot t.layout ~src:node ~dst:via with
  | -1 -> -1
  | e -> e - t.layout.csr.row.(node)

let fraction t ~node ~dst ~via =
  match nbr_slot t ~node ~via with -1 -> 0.0 | s -> t.phi.(node).(dst).(s)

let fractions t ~node ~dst =
  let row = t.phi.(node).(dst) in
  let acc = ref [] in
  for slot = Array.length row - 1 downto 0 do
    if row.(slot) > 0.0 then acc := (t.nbrs.(node).(slot), row.(slot)) :: !acc
  done;
  !acc

(* Shared tail of [set_fractions] and [set_row]: the entries already
   added up to [total] in [row]. *)
let check_and_renormalize row total =
  if Float.abs (total -. 1.0) > 1e-6 then begin
    Array.fill row 0 (Array.length row) 0.0;
    invalid_arg
      (Printf.sprintf "Params.set_fractions: fractions sum to %.9f, not 1" total)
  end;
  (* Renormalize away accumulated floating error. *)
  if not (Float.equal total 1.0) then
    Array.iteri (fun slot v -> row.(slot) <- v /. total) row

let check_sign frac =
  if frac < -.tolerance then invalid_arg "Params.set_fractions: negative fraction"

let add_entry row total slot frac =
  let frac = Float.max 0.0 frac in
  row.(slot) <- row.(slot) +. frac;
  total +. frac

let set_fractions t ~node ~dst entries =
  if node = dst && entries <> [] then
    invalid_arg "Params.set_fractions: destination routes to itself";
  let row = t.phi.(node).(dst) in
  Array.fill row 0 (Array.length row) 0.0;
  match entries with
  | [] -> ()
  | _ ->
    let total =
      List.fold_left
        (fun total (via, frac) ->
          check_sign frac;
          match nbr_slot t ~node ~via with
          | -1 ->
            invalid_arg
              (Printf.sprintf "Params.set_fractions: %s is not a neighbor of %s"
                 (Graph.name t.topo via) (Graph.name t.topo node))
          | slot -> add_entry row total slot frac)
        0.0 entries
    in
    check_and_renormalize row total

let set_row t ~node ~dst ~lead values =
  if node = dst then invalid_arg "Params.set_fractions: destination routes to itself";
  let row = t.phi.(node).(dst) in
  Array.fill row 0 (Array.length row) 0.0;
  check_sign values.(lead);
  let total = ref (add_entry row 0.0 lead values.(lead)) in
  for slot = 0 to Array.length row - 1 do
    if slot <> lead then begin
      check_sign values.(slot);
      total := add_entry row !total slot values.(slot)
    end
  done;
  check_and_renormalize row !total

let set_single t ~node ~dst ~via = set_fractions t ~node ~dst [ (via, 1.0) ]

let clear t ~node ~dst =
  let row = t.phi.(node).(dst) in
  Array.fill row 0 (Array.length row) 0.0

let successors t ~node ~dst = List.map fst (fractions t ~node ~dst)

let is_routed t ~node ~dst =
  Array.exists (fun v -> v > 0.0) t.phi.(node).(dst)

let validate t =
  let n = Graph.node_count t.topo in
  let problem = ref None in
  for node = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if !problem = None then begin
        let row = t.phi.(node).(dst) in
        let total = Array.fold_left ( +. ) 0.0 row in
        if Array.exists (fun v -> v < 0.0) row then
          problem :=
            Some (Printf.sprintf "negative fraction at (%d, %d)" node dst)
        else if node = dst && total > tolerance then
          problem := Some (Printf.sprintf "destination %d routes to itself" dst)
        else if total > tolerance && Float.abs (total -. 1.0) > 1e-6 then
          problem :=
            Some
              (Printf.sprintf "fractions at (%d, %d) sum to %.9f" node dst total)
      end
    done
  done;
  match !problem with None -> Ok () | Some msg -> Error msg

let successor_graph_is_acyclic t ~dst =
  let n = Graph.node_count t.topo in
  (* Colors: 0 unvisited, 1 on stack, 2 done. *)
  let color = Array.make n 0 in
  let rec visit node =
    if color.(node) = 1 then false
    else if color.(node) = 2 then true
    else begin
      color.(node) <- 1;
      let ok =
        List.for_all
          (fun succ -> succ = dst || visit succ)
          (successors t ~node ~dst)
      in
      color.(node) <- 2;
      ok
    end
  in
  List.for_all (fun node -> node = dst || visit node) (Graph.nodes t.topo)
