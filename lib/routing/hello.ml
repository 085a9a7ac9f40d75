type damping = {
  flap_penalty : float;
  half_life : float;
  suppress : float;
  reuse : float;
}

type params = {
  hello_interval : float;
  jitter : float;
  dead_interval : float;
  damping : damping option;
}

let default_damping =
  { flap_penalty = 1.0; half_life = 10.0; suppress = 2.0; reuse = 0.75 }

let default_params =
  {
    hello_interval = 0.5;
    jitter = 0.25;
    dead_interval = 2.0;
    damping = Some default_damping;
  }

let validate p =
  if p.hello_interval <= 0.0 then invalid_arg "Hello: hello_interval must be > 0";
  if p.dead_interval <= p.hello_interval then
    invalid_arg "Hello: dead_interval must exceed hello_interval";
  if p.jitter < 0.0 || p.jitter >= 1.0 then
    invalid_arg "Hello: jitter must be in [0, 1)";
  match p.damping with
  | None -> ()
  | Some d ->
    if d.flap_penalty <= 0.0 || d.half_life <= 0.0 then
      invalid_arg "Hello: damping penalty and half_life must be > 0";
    if d.reuse <= 0.0 || d.reuse > d.suppress then
      invalid_arg "Hello: damping needs 0 < reuse <= suppress"

type state = Down | Init | TwoWay | Full

type down_cause = [ `Dead | `One_way | `Peer_reset ]

type action =
  | Report_up
  | Report_down of down_cause
  | Arm_dead of float
  | Arm_reuse of float

type adj = {
  p : params;
  mutable state : state;
  mutable nbr_gen : int;  (* generation currently heard; -1 while Down *)
  mutable deadline : float;  (* dead-interval expiry, pushed by each hello *)
  mutable dead_armed : bool;  (* one outstanding dead check at a time *)
  mutable penalty : float;  (* damping penalty as of [penalty_at] *)
  mutable penalty_at : float;
  mutable suppressed : bool;
  mutable reuse_armed : bool;
  mutable flaps : int;
}

let create p =
  validate p;
  {
    p;
    state = Down;
    nbr_gen = -1;
    deadline = 0.0;
    dead_armed = false;
    penalty = 0.0;
    penalty_at = 0.0;
    suppressed = false;
    reuse_armed = false;
    flaps = 0;
  }

let state a = a.state
let suppressed a = a.suppressed
let flaps a = a.flaps
let heard_gen a = a.nbr_gen

let eps = 1e-9

let decayed a ~now =
  match a.p.damping with
  | None -> 0.0
  | Some d -> a.penalty *. (2.0 ** (-.(now -. a.penalty_at) /. d.half_life))

let penalty = decayed

let reuse_delay d ~penalty = d.half_life *. (Float.log (penalty /. d.reuse) /. Float.log 2.0)

(* A [Full -> Down] transition: charge the damping penalty, possibly
   crossing the suppress threshold (which arms one reuse check). *)
let charge_flap a ~now acc =
  a.flaps <- a.flaps + 1;
  match a.p.damping with
  | None -> ()
  | Some d ->
    a.penalty <- decayed a ~now +. d.flap_penalty;
    a.penalty_at <- now;
    if a.penalty >= d.suppress && not a.suppressed then begin
      a.suppressed <- true;
      if not a.reuse_armed then begin
        a.reuse_armed <- true;
        acc := Arm_reuse (reuse_delay d ~penalty:a.penalty) :: !acc
      end
    end

let on_hello a ~now ~gen ~heard_me =
  let acc = ref [] in
  (* A changed session while we think we hear the neighbor means the
     peer reset its side of the adjacency (it rebooted, or it tore us
     down one-sidedly and bumped the session): tear down, then treat
     this hello as the first of the new session. *)
  if a.state <> Down && gen <> a.nbr_gen then begin
    if a.state = Full then begin
      charge_flap a ~now acc;
      acc := Report_down `Peer_reset :: !acc
    end;
    a.state <- Down;
    a.nbr_gen <- -1
  end;
  a.nbr_gen <- gen;
  a.deadline <- now +. a.p.dead_interval;
  if not a.dead_armed then begin
    a.dead_armed <- true;
    acc := Arm_dead a.deadline :: !acc
  end;
  (match (a.state, heard_me) with
  | Down, false -> a.state <- Init
  | (Down | Init | TwoWay), true ->
    if a.suppressed then a.state <- TwoWay
    else begin
      a.state <- Full;
      acc := Report_up :: !acc
    end
  | Full, false ->
    (* 1-WayReceived: the neighbor stopped hearing us. *)
    charge_flap a ~now acc;
    acc := Report_down `One_way :: !acc;
    a.state <- Init
  | Init, false -> ()
  | TwoWay, false -> a.state <- Init
  | Full, true -> ());
  List.rev !acc

let on_dead_check a ~now =
  a.dead_armed <- false;
  if a.state = Down then []
  else if now +. eps >= a.deadline then begin
    let acc = ref [] in
    if a.state = Full then begin
      charge_flap a ~now acc;
      acc := Report_down `Dead :: !acc
    end;
    a.state <- Down;
    a.nbr_gen <- -1;
    List.rev !acc
  end
  else begin
    (* A hello pushed the deadline after this check was armed. *)
    a.dead_armed <- true;
    [ Arm_dead a.deadline ]
  end

let on_reuse_check a ~now =
  if not a.reuse_armed then []
  else
    match a.p.damping with
    | None ->
      a.reuse_armed <- false;
      []
    | Some d ->
      let p = decayed a ~now in
      if p <= d.reuse +. eps then begin
        a.penalty <- p;
        a.penalty_at <- now;
        a.suppressed <- false;
        a.reuse_armed <- false;
        if a.state = TwoWay then begin
          a.state <- Full;
          [ Report_up ]
        end
        else []
      end
      else [ Arm_reuse (reuse_delay d ~penalty:p) ]
