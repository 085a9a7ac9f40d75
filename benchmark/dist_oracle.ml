(* An all-pairs shortest-distance oracle written independently of the
   routing library: a plain O(n^2) array Dijkstra per root. With the
   benchmark's dyadic link costs every path sum is exact in binary
   floating point, so the comparison is exact equality. *)

let distances ~n ~(links : (int * int * float) list) ~root =
  let adj = Array.make n [] in
  List.iter (fun (s, d, c) -> adj.(s) <- (d, c) :: adj.(s)) links;
  let dist = Array.make n infinity and done_ = Array.make n false in
  dist.(root) <- 0.0;
  for _ = 1 to n do
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not done_.(v)) && Float.is_finite dist.(v)
         && (!u < 0 || dist.(v) < dist.(!u))
      then u := v
    done;
    if !u >= 0 then begin
      done_.(!u) <- true;
      List.iter
        (fun (v, c) ->
          let d = dist.(!u) +. c in
          if d < dist.(v) then dist.(v) <- d)
        adj.(!u)
    end
  done;
  dist

(* [distance root dst] is the system's answer; true iff it equals the
   oracle for every ordered pair. *)
let check ~n ~links ~distance =
  let ok = ref true in
  for root = 0 to n - 1 do
    if !ok then begin
      let d = distances ~n ~links ~root in
      for j = 0 to n - 1 do
        if not (Float.equal d.(j) (distance root j)) then ok := false
      done
    end
  done;
  !ok
