(* Reference AH step for the differential property in [Test_core]: the
   list form of [Heuristics.adjust] that the in-place row kernel
   replaced, kept verbatim. It must stay this simple; it is the oracle,
   not a second fast path. *)

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
