(* Tests for the link-cost estimators: windows, the M/M/1 analytic
   estimator, and the busy-period (perturbation-analysis-style)
   estimator's agreement with the closed form on synthetic M/M/1
   sample paths. *)

module Estimator = Mdr_costs.Estimator
module Delay = Mdr_fluid.Delay
module Rng = Mdr_util.Rng

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_mm1_estimator_tracks_rate () =
  let e = Estimator.mm1 ~capacity:1000.0 ~prop_delay:0.001 in
  (* 500 arrivals over 1 second -> arrival rate 500. *)
  for _ = 1 to 500 do
    Estimator.on_arrival e
  done;
  let s = Estimator.sample e ~now:1.0 in
  check_float "rate" 500.0 s.arrival_rate;
  let model = Delay.create ~capacity:1000.0 ~prop_delay:0.001 () in
  check_float "marginal matches closed form" (Delay.marginal model 500.0) s.marginal

let test_mm1_estimator_empty_window () =
  let e = Estimator.mm1 ~capacity:1000.0 ~prop_delay:0.001 in
  let s = Estimator.sample e ~now:1.0 in
  check_float "zero-flow marginal" ((1.0 /. 1000.0) +. 0.001) s.marginal

let test_window_resets () =
  let e = Estimator.mm1 ~capacity:1000.0 ~prop_delay:0.0 in
  for _ = 1 to 100 do
    Estimator.on_arrival e
  done;
  ignore (Estimator.sample e ~now:1.0);
  let s = Estimator.sample e ~now:2.0 in
  check_float "fresh window" 0.0 s.arrival_rate

let test_sojourn_estimator () =
  let e = Estimator.measured_sojourn ~prop_delay:0.001 in
  Estimator.on_departure e ~sojourn:0.004 ~service:0.001 ~busy:false;
  Estimator.on_departure e ~sojourn:0.006 ~service:0.001 ~busy:false;
  let s = Estimator.sample e ~now:1.0 in
  check_float "mean sojourn" 0.005 s.mean_sojourn;
  check_float "marginal = sojourn + prop" 0.006 s.marginal

let test_sojourn_estimator_keeps_last () =
  let e = Estimator.measured_sojourn ~prop_delay:0.001 in
  Estimator.on_departure e ~sojourn:0.004 ~service:0.001 ~busy:false;
  ignore (Estimator.sample e ~now:1.0);
  let s = Estimator.sample e ~now:2.0 in
  check_float "keeps previous estimate" 0.005 s.marginal

(* Simulate an M/M/1 queue directly and feed the busy-period estimator;
   its output must match the analytic marginal within sampling noise —
   the estimator is exact in expectation for M/M/1 (see interface). *)
let run_mm1_queue ~rng ~lambda ~mu ~horizon estimator =
  let t = ref 0.0 in
  let next_arrival = ref (Rng.exponential rng ~rate:lambda) in
  let queue = Queue.create () in
  let departure = ref infinity in
  let schedule_service now =
    let s = Rng.exponential rng ~rate:mu in
    departure := now +. s;
    s
  in
  let current_service = ref 0.0 in
  while !t < horizon do
    if !next_arrival <= !departure then begin
      t := !next_arrival;
      Estimator.on_arrival estimator;
      Queue.add !t queue;
      if Queue.length queue = 1 then current_service := schedule_service !t;
      next_arrival := !t +. Rng.exponential rng ~rate:lambda
    end
    else begin
      t := !departure;
      let arrived = Queue.pop queue in
      let busy = not (Queue.is_empty queue) in
      Estimator.on_departure estimator ~sojourn:(!t -. arrived)
        ~service:!current_service ~busy;
      if busy then current_service := schedule_service !t else departure := infinity
    end
  done

let test_busy_period_estimator_matches_mm1 () =
  let rng = Rng.create ~seed:123 in
  let lambda = 400.0 and mu = 1000.0 in
  let e = Estimator.busy_period ~prop_delay:0.0 in
  run_mm1_queue ~rng ~lambda ~mu ~horizon:400.0 e;
  let s = Estimator.sample e ~now:400.0 in
  let analytic = mu /. ((mu -. lambda) ** 2.0) in
  let err = Float.abs (s.marginal -. analytic) /. analytic in
  check "within 15% of analytic" true (err < 0.15)

let test_busy_period_estimator_light_load () =
  let rng = Rng.create ~seed:7 in
  let lambda = 50.0 and mu = 1000.0 in
  let e = Estimator.busy_period ~prop_delay:0.0 in
  run_mm1_queue ~rng ~lambda ~mu ~horizon:200.0 e;
  let s = Estimator.sample e ~now:200.0 in
  let analytic = mu /. ((mu -. lambda) ** 2.0) in
  check "light load within 15%" true (Float.abs (s.marginal -. analytic) /. analytic < 0.15)

let test_busy_period_estimator_heavy_load () =
  let rng = Rng.create ~seed:99 in
  let lambda = 800.0 and mu = 1000.0 in
  let e = Estimator.busy_period ~prop_delay:0.0 in
  run_mm1_queue ~rng ~lambda ~mu ~horizon:600.0 e;
  let s = Estimator.sample e ~now:600.0 in
  let analytic = mu /. ((mu -. lambda) ** 2.0) in
  check "heavy load within 30%" true (Float.abs (s.marginal -. analytic) /. analytic < 0.30)

let test_busy_period_includes_prop_delay () =
  let e = Estimator.busy_period ~prop_delay:0.5 in
  Estimator.on_arrival e;
  Estimator.on_departure e ~sojourn:0.1 ~service:0.1 ~busy:false;
  let s = Estimator.sample e ~now:1.0 in
  check "prop delay added" true (s.marginal >= 0.5)

(* --- Saturation-safe cost pipeline ------------------------------------ *)

(* The overload contract: every exported cost form is total on
   [0, 3c] — finite, positive, strictly increasing — even though the
   raw M/M/1 expressions explode at f = c. *)
let prop_cost_pipeline_total_past_knee =
  QCheck.Test.make ~name:"delay model total/positive/monotone on [0, 3c]"
    ~count:200
    QCheck.(pair (float_range 10.0 1.0e6) (float_range 0.0 0.01))
    (fun (capacity, prop_delay) ->
      let m = Delay.create ~capacity ~prop_delay () in
      let samples = List.init 61 (fun i -> float_of_int i /. 20.0 *. capacity) in
      let pointwise f =
        let c = Delay.cost m f
        and c' = Delay.marginal m f
        and c2 = Delay.second m f
        and s = Delay.sojourn m f in
        Float.is_finite c && Float.is_finite c' && Float.is_finite c2
        && Float.is_finite s && c >= 0.0 && c' > 0.0 && c2 > 0.0 && s > 0.0
      in
      let rec monotone = function
        | a :: (b :: _ as rest) ->
          Delay.cost m b > Delay.cost m a
          && Delay.marginal m b > Delay.marginal m a
          && monotone rest
        | _ -> true
      in
      List.for_all pointwise samples
      && monotone samples
      && (not (Delay.saturated m 0.0))
      && Delay.saturated m (3.0 *. capacity))

(* The raw M/M/1 forms are still reachable only behind guards: negative
   or non-finite flows must raise, never silently produce nan/inf. *)
let test_delay_rejects_invalid_flow () =
  let m = Delay.create ~capacity:1000.0 ~prop_delay:0.001 () in
  let raises g f =
    match g m f with _ -> false | exception Invalid_argument _ -> true
  in
  check "cost: negative flow" true (raises Delay.cost (-1.0));
  check "cost: nan flow" true (raises Delay.cost Float.nan);
  check "cost: infinite flow" true (raises Delay.cost Float.infinity);
  check "marginal: negative flow" true (raises Delay.marginal (-1.0));
  check "marginal: nan flow" true (raises Delay.marginal Float.nan);
  check "second: infinite flow" true (raises Delay.second Float.infinity)

let suite =
  [
    Alcotest.test_case "mm1: tracks arrival rate" `Quick test_mm1_estimator_tracks_rate;
    Alcotest.test_case "mm1: empty window" `Quick test_mm1_estimator_empty_window;
    Alcotest.test_case "windows reset on sample" `Quick test_window_resets;
    Alcotest.test_case "sojourn estimator" `Quick test_sojourn_estimator;
    Alcotest.test_case "sojourn: keeps last on empty window" `Quick test_sojourn_estimator_keeps_last;
    Alcotest.test_case "busy-period: matches M/M/1 at rho=0.4" `Slow test_busy_period_estimator_matches_mm1;
    Alcotest.test_case "busy-period: light load" `Quick test_busy_period_estimator_light_load;
    Alcotest.test_case "busy-period: heavy load" `Slow test_busy_period_estimator_heavy_load;
    Alcotest.test_case "busy-period: includes propagation delay" `Quick test_busy_period_includes_prop_delay;
    QCheck_alcotest.to_alcotest prop_cost_pipeline_total_past_knee;
    Alcotest.test_case "delay: rejects invalid flows" `Quick test_delay_rejects_invalid_flow;
  ]
