(* Deterministic iteration over hash tables.

   [Hashtbl.iter]/[Hashtbl.fold] visit buckets in an order that depends
   on the table's internal layout — insertion history, resizes, and (if
   randomized hashing is ever enabled) the process seed. Protocol and
   simulation code must never let that order leak into router state,
   message emission order, or event scheduling, or runs stop being a
   pure function of the seed. These wrappers visit bindings in
   ascending key order instead; the repo's lint forbids raw
   [Hashtbl.iter]/[Hashtbl.fold] in [lib/routing], [lib/netsim],
   [lib/eventsim] and [lib/faults] in favour of this module. *)

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort_uniq compare

(* One snapshot fold + one sort, with no hash lookup per binding.
   Duplicate keys (Hashtbl.add shadowing) are rare enough that the
   authoritative [Hashtbl.find] only runs when the dedup pass actually
   meets one. *)
let bindings t =
  let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] in
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) all in
  let rec dedup acc = function
    | [] -> List.rev acc
    | (k, _v) :: rest -> (
      match acc with
      | (pk, _) :: acc_tl when compare pk k = 0 ->
        (* Shadowed key: defer to the table for the most recent value. *)
        dedup ((pk, Hashtbl.find t pk) :: acc_tl) rest
      | _ -> dedup ((k, _v) :: acc) rest)
  in
  dedup [] sorted

let iter f t = List.iter (fun (k, v) -> f k v) (bindings t)

let fold f t init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (bindings t)
