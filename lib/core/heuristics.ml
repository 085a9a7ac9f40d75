module Params = Mdr_fluid.Params

type scheme = Mp | Sp | Ecmp

let is_distribution entries =
  entries <> []
  && List.for_all (fun (_, f) -> f >= 0.0) entries
  && Float.abs (List.fold_left (fun acc (_, f) -> acc +. f) 0.0 entries -. 1.0) <= 1e-6

let initial = function
  | [] -> invalid_arg "Heuristics.initial: empty successor set"
  | [ (k, _) ] -> [ (k, 1.0) ]
  | entries ->
    List.iter
      (fun (_, a) ->
        if not (Float.is_finite a) || a <= 0.0 then
          invalid_arg "Heuristics.initial: marginal distances must be positive")
      entries;
    let total = List.fold_left (fun acc (_, a) -> acc +. a) 0.0 entries in
    let m = float_of_int (List.length entries) in
    (* phi_k = (1 - a_k / sum) / (|S| - 1): sums to one, and greater
       marginal distance means a smaller share (paper Fig. 6). *)
    List.map (fun (k, a) -> (k, (1.0 -. (a /. total)) /. (m -. 1.0))) entries

let check_damping damping =
  if damping <= 0.0 || damping > 1.0 then
    invalid_arg "Heuristics.adjust: damping must be in (0, 1]"

(* One AH step over positions [0, m) of [fracs] and [through], each
   successor's fraction and a_k in the caller's order. Writes the new
   fractions to [next], 0.0 where a successor drained, and returns the
   position of the best successor k0; returns -1, leaving [next] as it
   was, when nothing moves (no finite d_min, or every a_k equal). *)
let step ~damping ~fracs ~through ~next m =
  (* Steps 1-2: the best successor; a successor's excess is its a_k
     less d_min. *)
  let d_min = ref infinity in
  for i = 0 to m - 1 do
    d_min := Float.min !d_min through.(i)
  done;
  let d_min = !d_min in
  if not (Float.is_finite d_min) then -1
  else begin
    (* A tie goes to the first successor in the caller's order. *)
    let k0 = ref 0 in
    for i = 1 to m - 1 do
      if through.(i) < through.(!k0) then k0 := i
    done;
    let k0 = !k0 in
    (* Step 3: the largest multiplier that keeps every fraction
       non-negative. *)
    let eta = ref infinity in
    for i = 0 to m - 1 do
      let a = Float.max 0.0 (through.(i) -. d_min) in
      if a > 0.0 then eta := Float.min !eta (fracs.(i) /. a)
    done;
    if not (Float.is_finite !eta) then -1
    else begin
      let eta = !eta *. damping in
      (* Steps 4-5: shift eta * a_k from each k toward the best. *)
      let moved = ref 0.0 in
      for i = 0 to m - 1 do
        if i <> k0 then begin
          let delta = eta *. Float.max 0.0 (through.(i) -. d_min) in
          moved := !moved +. delta;
          let f = fracs.(i) -. delta in
          next.(i) <- (if f > 1e-12 then f else 0.0)
        end
      done;
      next.(k0) <- fracs.(k0) +. !moved;
      (* Renormalise away floating error: k0 first, then the kept
         successors in order. *)
      let total = ref (0.0 +. next.(k0)) in
      for i = 0 to m - 1 do
        if i <> k0 && next.(i) > 0.0 then total := !total +. next.(i)
      done;
      for i = 0 to m - 1 do
        if i = k0 || next.(i) > 0.0 then next.(i) <- next.(i) /. !total
      done;
      k0
    end
  end

let adjust ?(damping = 1.0) ~current ~through () =
  check_damping damping;
  match current with
  | [] -> invalid_arg "Heuristics.adjust: empty distribution"
  | [ _ ] -> current
  | _ -> (
    let ids = Array.of_list (List.map fst current) in
    let fracs = Array.of_list (List.map snd current) in
    let through = Array.map through ids in
    let m = Array.length ids in
    let next = Array.make m 0.0 in
    match step ~damping ~fracs ~through ~next m with
    | -1 -> current
    | k0 ->
      let rest = ref [] in
      for i = m - 1 downto 0 do
        if i <> k0 && not (Float.equal next.(i) 0.0) then rest := (ids.(i), next.(i)) :: !rest
      done;
      (ids.(k0), next.(k0)) :: !rest)

type workspace = {
  slots : int array;  (* the neighbor slot of each successor *)
  fracs : float array;
  through : float array;
  next : float array;
  values : float array;  (* the new row by neighbor slot *)
}

let workspace params =
  let topo = Params.topology params in
  let degree = ref 0 in
  for node = 0 to Mdr_topology.Graph.node_count topo - 1 do
    degree := max !degree (Array.length (Params.neighbor_array params node))
  done;
  let floats () = Array.make !degree 0.0 in
  {
    slots = Array.make !degree 0;
    fracs = floats ();
    through = floats ();
    next = floats ();
    values = floats ();
  }

let adjust_row ~damping ws params ~node ~dst ~dist ~costs =
  let row = Params.row params ~node ~dst in
  let nbrs = Params.neighbor_array params node
  and base = Params.first_slot (Params.layout params) node in
  let m = ref 0 in
  for s = 0 to Array.length row - 1 do
    if row.(s) > 0.0 then begin
      ws.slots.(!m) <- s;
      ws.fracs.(!m) <- row.(s);
      ws.through.(!m) <- dist.(nbrs.(s)) +. costs.(base + s);
      incr m
    end
  done;
  let m = !m in
  if m >= 2 then begin
    check_damping damping;
    let k0 = step ~damping ~fracs:ws.fracs ~through:ws.through ~next:ws.next m in
    (* Nothing moved: the row is still written back, renormalised as
       a fresh distribution, with its first successor leading. *)
    let moved = k0 >= 0 in
    let out = if moved then ws.next else ws.fracs in
    let values = ws.values in
    Array.fill values 0 (Array.length row) 0.0;
    for i = 0 to m - 1 do
      values.(ws.slots.(i)) <- out.(i)
    done;
    Params.set_row params ~node ~dst ~lead:ws.slots.(if moved then k0 else 0) values
  end

(* The first candidate with the smallest finite [through k], or -1. *)
let rec first_best through best best_d = function
  | [] -> best
  | k :: rest ->
    let d = through k in
    if Float.is_finite d && d < best_d then first_best through k d rest
    else first_best through best best_d rest

let choose scheme ~through candidates =
  match scheme with
  | Mp -> candidates
  | Sp | Ecmp -> (
    match first_best through (-1) infinity candidates with
    | -1 -> []
    | k when scheme = Sp -> [ k ]
    | k ->
      let bound = through k *. (1.0 +. 1e-9) in
      List.filter (fun j -> through j <= bound) candidates)

let seed scheme ~through = function
  | [] -> []
  | [ k ] -> [ (k, 1.0) ]
  | chosen when scheme = Ecmp ->
    let even = 1.0 /. float_of_int (List.length chosen) in
    List.map (fun k -> (k, even)) chosen
  | chosen -> (
    let entries =
      List.filter_map
        (fun k ->
          let a = through k in
          if Float.is_finite a && a > 0.0 then Some (k, a) else None)
        chosen
    in
    match entries with [] -> [] | _ -> initial entries)

let uses_ah = function Mp -> true | Sp | Ecmp -> false
