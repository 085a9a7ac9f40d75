(* The measuring loop every workload shares: set up (timed from a
   compacted heap), then run a timed round, until the timed time spent
   would pass the budget. The first
   [min_rounds] rounds always run; after them a round starts only while
   the median round still fits, and never past [max_rounds]. A set-up
   sample times [setup_batch] set-ups and divides, for set-ups too
   short to time one by one; the round gets the last one's product. *)

type 'r t = {
  setup_s : float array;  (* one sample per set-up *)
  results : 'r list;  (* in round order *)
  timed_ns : int;  (* timed time of all rounds *)
}

let run ~seconds ~min_rounds ?(max_rounds = max_int) ?(min_setups = 0) ?(setup_batch = 1)
    ~setup ~round ~timed_ns () =
  let setups = Stats.buf () and times = Stats.buf () in
  let timed_setup i =
    Gc.compact ();
    let t0 = Clock.now_ns () in
    for _ = 2 to setup_batch do
      ignore (Sys.opaque_identity (setup i))
    done;
    let x = setup i in
    Stats.push setups (Clock.seconds (Clock.now_ns () - t0) /. float_of_int setup_batch);
    x
  in
  let budget = seconds *. 1e9 in
  let results = ref [] and elapsed = ref 0 and n = ref 0 in
  (* Extra set-ups, so that at least [min_setups] are timed, run first
     from the same compacted heap every set-up starts from. Their product
     is dropped, so [setup] must not hold resources when [min_setups] is
     above [min_rounds]. *)
  for i = 1 to min_setups - min_rounds do
    ignore (timed_setup (-i))
  done;
  while
    !n < min_rounds
    || !n < max_rounds
       && float_of_int !elapsed +. Stats.median (Stats.contents times) <= budget
  do
    let r = round !n (timed_setup !n) in
    let ns = timed_ns r in
    Stats.push times (float_of_int ns);
    elapsed := !elapsed + ns;
    results := r :: !results;
    incr n
  done;
  {
    setup_s = Stats.contents setups;
    results = List.rev !results;
    timed_ns = !elapsed;
  }

(* Rounds that repeat the same inputs must repeat the same outputs; the
   first round's digest stands for the run. *)
let repeated_digest oracle digests =
  let first = List.hd digests in
  List.iteri
    (fun i d -> if i > 0 then Oracle.check oracle "round digest repeats" (String.equal d first))
    digests;
  first
