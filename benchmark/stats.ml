(* Sample statistics. Percentiles use the nearest-rank definition on
   per-mille levels, so every rank is an exact integer computation. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of per-mille level [pm] among [n] samples. *)
let rank ~n pm = max 1 (((pm * n) + 999) / 1000)

let beyond ~n pm = n - rank ~n pm

let percentile_sorted s pm =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  s.(rank ~n pm - 1)

let percentile samples pm = percentile_sorted (sorted samples) pm
let median samples = percentile samples 500

(* Per-mille percentile of nanosecond samples, in microseconds; 0 when
   there are none (a traced run that had no idle step, say). *)
let us_or_zero samples pm =
  if Array.length samples = 0 then 0.0 else percentile samples pm *. 1e-3

let mean samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.mean: no samples";
  Array.fold_left ( +. ) 0.0 samples /. float_of_int n

let ladder = [ 500; 900; 990; 999 ]

let tail_level ?(min_beyond = 10) ~n () =
  List.fold_left
    (fun acc pm -> if beyond ~n pm >= min_beyond then Some pm else acc)
    None ladder

let level_name pm =
  if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10)
  else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)

(* Growable float buffer for latency samples recorded in timed loops. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 1024 0.0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
