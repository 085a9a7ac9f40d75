(* Every timing in the benchmark reads this clock: CLOCK_MONOTONIC with
   nanosecond resolution, through bechamel's allocation-free stub. *)

let source = "CLOCK_MONOTONIC via bechamel.monotonic_clock (ns)"
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9
