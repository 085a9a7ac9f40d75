(* Correctness accounting. Every check the benchmark makes is one
   attempted operation; a check that does not hold is one failed
   operation. A run with any failure is not a valid measurement. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* newest first, at most [keep] *)
}

let keep = 10
let create () = { attempted = 0; failed = 0; failures = [] }

let check t name ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.failures < keep then t.failures <- name :: t.failures
  end

let fail_frac t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted

let correct t = t.attempted > 0 && t.failed = 0
let failures t = List.rev t.failures
