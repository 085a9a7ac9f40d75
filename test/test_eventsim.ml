(* Tests for the discrete-event engine: ordering, cancellation, clock
   semantics and run-until behaviour, and a model-based property that
   checks the engine against a sorted reference list. *)

module Engine = Mdr_eventsim.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))

let test_runs_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log));
  Engine.run e;
  check "order" true (List.rev !log = [ 1; 2; 3 ]);
  check_float "clock" 3.0 (Engine.now e)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  check "fifo ties" true (List.rev !log = [ 1; 2; 3; 4; 5 ])

let test_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:0.5 (fun () -> log := "inner" :: !log))));
  Engine.run e;
  check "nested" true (List.rev !log = [ "outer"; "inner" ]);
  check_float "clock" 1.5 (Engine.now e)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel e id;
  Engine.run e;
  check "not fired" false !fired;
  check_int "pending" 0 (Engine.pending e)

let test_cancel_twice_harmless () =
  let e = Engine.create () in
  let id = Engine.schedule e ~delay:1.0 ignore in
  Engine.cancel e id;
  Engine.cancel e id;
  check_int "pending" 0 (Engine.pending e);
  Engine.run e

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run ~until:5.5 e;
  check_int "first five" 5 !count;
  check_float "clock at limit" 5.5 (Engine.now e);
  Engine.run e;
  check_int "rest" 10 !count

let test_run_until_with_cancelled_head () =
  (* A cancelled event beyond the limit must not leak execution past
     the limit. *)
  let e = Engine.create () in
  let fired = ref [] in
  let id = Engine.schedule e ~delay:1.0 (fun () -> fired := 1 :: !fired) in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> fired := 2 :: !fired));
  Engine.cancel e id;
  Engine.run ~until:1.5 e;
  check "nothing past limit" true (!fired = []);
  Engine.run e;
  check "later event fires" true (!fired = [ 2 ])

let test_schedule_at () =
  let e = Engine.create () in
  let t = ref 0.0 in
  ignore (Engine.schedule_at e ~time:2.5 (fun () -> t := Engine.now e));
  Engine.run e;
  check_float "fired at" 2.5 !t

let test_schedule_past_raises () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 ignore);
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~time:0.5 ignore));
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule_at: NaN time")
    (fun () -> ignore (Engine.schedule_at e ~time:Float.nan ignore));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e ~delay:(-1.0) ignore))

let test_step () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr count));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> incr count));
  check "step 1" true (Engine.step e);
  check_int "one fired" 1 !count;
  check "step 2" true (Engine.step e);
  check "exhausted" false (Engine.step e)

let test_pending_counts () =
  let e = Engine.create () in
  let a = Engine.schedule e ~delay:1.0 ignore in
  ignore (Engine.schedule e ~delay:2.0 ignore);
  check_int "two pending" 2 (Engine.pending e);
  Engine.cancel e a;
  check_int "one pending" 1 (Engine.pending e);
  Engine.run e;
  check_int "none" 0 (Engine.pending e)

let test_cancel_fired_is_noop () =
  (* Cancelling an event that already fired must not touch the count
     or any later event. *)
  let e = Engine.create () in
  let a = Engine.schedule e ~delay:1.0 ignore in
  Engine.run e;
  let fired = ref false in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> fired := true));
  Engine.cancel e a;
  check_int "one pending" 1 (Engine.pending e);
  Engine.run e;
  check "b fires" true !fired;
  check_int "none" 0 (Engine.pending e)

let test_many_events_stress () =
  let e = Engine.create () in
  let rng = Mdr_util.Rng.create ~seed:17 in
  let count = ref 0 in
  let last = ref 0.0 in
  for _ = 1 to 20_000 do
    let t = Mdr_util.Rng.uniform rng ~lo:0.0 ~hi:100.0 in
    ignore
      (Engine.schedule_at e ~time:t (fun () ->
           incr count;
           check "monotonic clock" true (Engine.now e >= !last);
           last := Engine.now e))
  done;
  Engine.run e;
  check_int "all fired" 20_000 !count

(* Model-based check: a stream of operations runs on the engine and on
   a reference list of pending (time, as-of instant, scheduling order)
   events; after every operation both must agree on what has fired, in
   what order and as of when, on the clock and on the pending count.
   Delays and times come from a half-second grid so many events share
   a time, and as-of instants from the same grid so many share those
   too. *)
type op =
  | Schedule of int  (* delay, half-seconds *)
  | Schedule_at of int  (* half-seconds past the current whole second *)
  | Schedule_as_of of int * int  (* as-of past now, then time past as-of; half-seconds *)
  | Cancel of int  (* index into every id issued so far *)
  | Step
  | Run_until of int  (* limit, half-seconds from now *)

let show_op = function
  | Schedule d -> Printf.sprintf "schedule %d" d
  | Schedule_at k -> Printf.sprintf "schedule_at %d" k
  | Schedule_as_of (a, d) -> Printf.sprintf "schedule_as_of %d %d" a d
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run_until %d" d

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Schedule d) (0 -- 4));
        (2, map (fun k -> Schedule_at k) (0 -- 6));
        (2, map2 (fun a d -> Schedule_as_of (a, d)) (0 -- 3) (0 -- 3));
        (2, map (fun i -> Cancel i) (0 -- 1000));
        (3, return Step);
        (1, map (fun d -> Run_until d) (0 -- 4));
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (0 -- 300) gen_op)

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine == sorted reference list (random op streams)" ~count:300
    arb_ops (fun ops ->
      let e = Engine.create () in
      let fired = ref [] in
      let issued = ref [||] in
      (* Model: pending events as (time, as_of, seq), the fire log of
         (seq, as_of), the clock. *)
      let model = ref [] and model_fired = ref [] and model_now = ref 0.0 in
      let next_seq = ref 0 in
      let add time as_of id =
        let seq = !next_seq in
        incr next_seq;
        issued := Array.append !issued [| (id, seq) |];
        model := List.merge compare !model [ (time, as_of, seq) ]
      in
      let action seq () = fired := (seq, (Engine.clock e).firing_as_of) :: !fired in
      let model_fire () =
        match !model with
        | [] -> false
        | (time, as_of, seq) :: rest ->
          model := rest;
          model_now := time;
          model_fired := (seq, as_of) :: !model_fired;
          true
      in
      let apply = function
        | Schedule d ->
          let delay = 0.5 *. float_of_int d in
          let id = Engine.schedule e ~delay (action !next_seq) in
          add (!model_now +. delay) !model_now id
        | Schedule_at k ->
          let second = Float.of_int (truncate !model_now) in
          let time = Float.max !model_now (second +. (0.5 *. float_of_int k)) in
          add time !model_now (Engine.schedule_at e ~time (action !next_seq))
        | Schedule_as_of (a, d) ->
          let as_of = !model_now +. (0.5 *. float_of_int a) in
          let time = as_of +. (0.5 *. float_of_int d) in
          add time as_of (Engine.schedule_as_of e ~as_of ~time (action !next_seq))
        | Cancel i ->
          let n = Array.length !issued in
          if n > 0 then begin
            let id, seq = !issued.(i mod n) in
            Engine.cancel e id;
            model := List.filter (fun (_, _, s) -> s <> seq) !model
          end
        | Step -> if Engine.step e <> model_fire () then failwith "step result differs"
        | Run_until d ->
          let limit = !model_now +. (0.5 *. float_of_int d) in
          Engine.run ~until:limit e;
          while (match !model with (time, _, _) :: _ -> time <= limit | [] -> false) do
            ignore (model_fire () : bool)
          done;
          model_now := Float.max !model_now limit
      in
      List.for_all
        (fun op ->
          apply op;
          !fired = !model_fired
          && Float.equal (Engine.now e) !model_now
          && Float.equal ((Engine.clock e).firing_as_of) infinity
          && Engine.pending e = List.length !model)
        ops)

let suite =
  [
    Alcotest.test_case "runs in time order" `Quick test_runs_in_time_order;
    Alcotest.test_case "same-time events are FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "double cancel harmless" `Quick test_cancel_twice_harmless;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "run until with cancelled head" `Quick test_run_until_with_cancelled_head;
    Alcotest.test_case "schedule at absolute time" `Quick test_schedule_at;
    Alcotest.test_case "scheduling in the past raises" `Quick test_schedule_past_raises;
    Alcotest.test_case "single stepping" `Quick test_step;
    Alcotest.test_case "pending counts" `Quick test_pending_counts;
    Alcotest.test_case "cancelling a fired event is a no-op" `Quick test_cancel_fired_is_noop;
    Alcotest.test_case "20k random events stay ordered" `Quick test_many_events_stress;
    QCheck_alcotest.to_alcotest prop_engine_matches_model;
  ]
