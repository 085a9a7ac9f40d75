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

let adjust ?(damping = 1.0) ~current ~through () =
  if damping <= 0.0 || damping > 1.0 then
    invalid_arg "Heuristics.adjust: damping must be in (0, 1]";
  match current with
  | [] -> invalid_arg "Heuristics.adjust: empty distribution"
  | [ _ ] -> current
  | _ ->
    (* Step 1-2: the best successor and each successor's excess. *)
    let annotated = List.map (fun (k, f) -> (k, f, through k)) current in
    let d_min =
      List.fold_left (fun acc (_, _, d) -> Float.min acc d) infinity annotated
    in
    if not (Float.is_finite d_min) then current
    else begin
      let k0, _, _ =
        (* Ties to the lowest id, deterministically. *)
        List.fold_left
          (fun ((_, _, bd) as best) ((_, _, d) as cand) ->
            if d < bd then cand else best)
          (List.hd annotated) (List.tl annotated)
      in
      let excess = List.map (fun (k, f, d) -> (k, f, Float.max 0.0 (d -. d_min))) annotated in
      (* Step 3: the largest multiplier that keeps every fraction
         non-negative. *)
      let eta =
        List.fold_left
          (fun acc (_, f, a) -> if a > 0.0 then Float.min acc (f /. a) else acc)
          infinity excess
      in
      if not (Float.is_finite eta) then current
      else begin
        let eta = eta *. damping in
        (* Steps 4-5: shift eta * a_k from each k toward the best. *)
        let moved = ref 0.0 in
        let reduced =
          List.filter_map
            (fun (k, f, a) ->
              if k = k0 then None
              else begin
                let delta = eta *. a in
                moved := !moved +. delta;
                let f' = f -. delta in
                if f' > 1e-12 then Some (k, f') else Some (k, 0.0)
              end)
            excess
        in
        let f0 = List.assoc k0 current in
        let entries = (k0, f0 +. !moved) :: List.filter (fun (_, f) -> f > 0.0) reduced in
        (* Renormalise away floating error. *)
        let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 entries in
        List.map (fun (k, f) -> (k, f /. total)) entries
      end
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
