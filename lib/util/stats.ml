module Welford = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n

  let mean t = if t.n = 0 then 0.0 else t.mean

  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

  let min t = t.min

  let max t = t.max

  let reset t =
    t.n <- 0;
    t.mean <- 0.0;
    t.m2 <- 0.0;
    t.min <- infinity;
    t.max <- neg_infinity
end

let mean_of_list xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile_array arr ~p =
  if Array.length arr = 0 then invalid_arg "Stats.percentile: empty list";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  Array.sort Float.compare arr;
  let n = Array.length arr in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let idx = Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)) in
  arr.(idx)

let percentile xs ~p = percentile_array (Array.of_list xs) ~p
