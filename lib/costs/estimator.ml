module Delay = Mdr_fluid.Delay

type sample = {
  arrival_rate : float;
  mean_sojourn : float;
  marginal : float;
  saturated : bool;
}

type kind =
  | Mm1 of Delay.t
  | Busy_period
  | Measured_sojourn

(* The floats live in an all-float record, which is stored flat, so
   updating them per packet does not allocate. *)
type sums = {
  mutable window_start : float;
  mutable sojourn_sum : float;
  mutable service_sum : float;
  mutable last_marginal : float;
}

type t = {
  kind : kind;
  prop_delay : float;
  mutable arrivals : int;
  mutable departures : int;
  mutable busy_periods : int;
  sums : sums;
}

let make kind ~prop_delay ~initial =
  {
    kind;
    prop_delay;
    arrivals = 0;
    departures = 0;
    busy_periods = 0;
    sums =
      { window_start = 0.0; sojourn_sum = 0.0; service_sum = 0.0; last_marginal = initial };
  }

let mm1 ~capacity ~prop_delay =
  let model = Delay.create ~capacity ~prop_delay () in
  make (Mm1 model) ~prop_delay ~initial:(Delay.marginal model 0.0)

let busy_period ~prop_delay = make Busy_period ~prop_delay ~initial:prop_delay

let measured_sojourn ~prop_delay = make Measured_sojourn ~prop_delay ~initial:prop_delay

let on_arrival t = t.arrivals <- t.arrivals + 1

let on_departure t ~sojourn ~service ~busy =
  t.departures <- t.departures + 1;
  t.sums.sojourn_sum <- t.sums.sojourn_sum +. sojourn;
  t.sums.service_sum <- t.sums.service_sum +. service;
  if not busy then t.busy_periods <- t.busy_periods + 1

let reset_window t ~now =
  t.sums.window_start <- now;
  t.arrivals <- 0;
  t.departures <- 0;
  t.busy_periods <- 0;
  t.sums.sojourn_sum <- 0.0;
  t.sums.service_sum <- 0.0

let sample t ~now =
  let span = now -. t.sums.window_start in
  let arrival_rate = if span > 0.0 then float_of_int t.arrivals /. span else 0.0 in
  let mean_sojourn =
    if t.departures > 0 then t.sums.sojourn_sum /. float_of_int t.departures else 0.0
  in
  let marginal =
    match t.kind with
    | Mm1 model -> Delay.marginal model arrival_rate
    | Busy_period ->
      if t.departures = 0 then t.sums.last_marginal
      else
        (* D'(f) = mean sojourn x mean customers served per busy
           period (exact for M/M/1; see interface). A window ending
           mid-busy-period counts the open period as one. *)
        let periods = max 1 t.busy_periods in
        let customers_per_period = float_of_int t.departures /. float_of_int periods in
        (mean_sojourn *. customers_per_period) +. t.prop_delay
    | Measured_sojourn ->
      if t.departures = 0 then t.sums.last_marginal else mean_sojourn +. t.prop_delay
  in
  (* An estimate is a link cost: downstream routing sums and compares
     these, so a pathological window must never leak NaN or infinity
     into the pipeline — fall back to the previous finite estimate. *)
  let marginal = if Float.is_finite marginal then marginal else t.sums.last_marginal in
  let saturated =
    match t.kind with
    | Mm1 model -> Delay.saturated model arrival_rate
    | Busy_period | Measured_sojourn ->
      (* Capacity is unknown: the overload signal is a growing backlog
         (strictly more arrivals than departures over the window). *)
      t.arrivals > t.departures && t.arrivals > 0
  in
  t.sums.last_marginal <- marginal;
  reset_window t ~now;
  { arrival_rate; mean_sojourn; marginal; saturated }
