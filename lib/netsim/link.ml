module Engine = Mdr_eventsim.Engine
module Estimator = Mdr_costs.Estimator

(* The time integral of a piecewise-constant quantity since time 0:
   queue occupancy, transmitter busy. It is kept here rather than in a
   utility library because a call into another library boxes the
   floats it passes; this all-float record is updated by an inlined
   function, so a hop's updates box no float. *)
type integral = { mutable last_time : float; mutable last_value : float; mutable area : float }

let[@inline] set_value i ~now ~value =
  if now < i.last_time then raise (Invalid_argument "Link: time went backwards");
  i.area <- i.area +. (i.last_value *. (now -. i.last_time));
  i.last_time <- now;
  i.last_value <- value

(* The time average over [0, now]. *)
let average i ~now =
  if now <= 0.0 then i.last_value
  else (i.area +. (i.last_value *. (now -. i.last_time))) /. now

(* A FIFO transmitter knows when a packet will leave as soon as the
   packet joins the queue: [dep = max now (last departure) + size /
   capacity]. So [send] schedules only the packet's arrival at the far
   end, at [dep + prop_delay], and the packets not yet departed wait in
   a ring of parallel arrays, oldest first; the head is the one in
   service. A departure's bookkeeping (counts, occupancy and busy
   integrals, the estimator) is done lazily, in departure order, by
   [retire] before anything reads or changes the link, with the
   departure's own time, so every update happens at the same instant
   and in the same order as if the departure were an event.

   That event would have been scheduled when the transmission started,
   and the arrival it scheduled in turn would have been scheduled at
   the departure. So the arrival is scheduled as of [dep], and a
   departure due at the very instant of the running event counts as
   done before it only if its transmission started no later than that
   event was (as of) scheduled: equal-size packets on equal-capacity
   links make such ties exact. *)
type t = {
  engine : Engine.t;
  clock : Engine.clock;
  src : int;
  dst : int;
  capacity : float;  (* bits/s *)
  prop_delay : float;
  estimator : Estimator.t;
  deliver : Packet.t -> unit;
  drop : Packet.t -> unit;
  buffer_packets : int option;
  (* The ring: slot [(head + i) land (length - 1)] holds the i-th
     packet not yet departed; the arrays grow by doubling, so their
     length is 0 or a power of two. *)
  mutable packets : Packet.t array;
  mutable deps : float array;  (* departure time *)
  mutable starts : float array;  (* transmission start *)
  mutable arrived : float array;  (* time [send] accepted it *)
  mutable services : float array;  (* transmission time *)
  mutable arrivals : Engine.event_id array;  (* its arrival at [dst] *)
  mutable head : int;
  mutable count : int;  (* packets queued or in service *)
  occupancy : integral;
  busy_time : integral;
  mutable sent : int;
  mutable up : bool;
}

let create ?buffer_packets ~engine ~link ~estimator ~deliver ~drop () =
  (match buffer_packets with
  | Some b when b < 1 -> invalid_arg "Link.create: buffer_packets < 1"
  | Some _ | None -> ());
  {
    engine;
    clock = Engine.clock engine;
    src = link.Mdr_topology.Graph.src;
    dst = link.Mdr_topology.Graph.dst;
    capacity = link.Mdr_topology.Graph.capacity;
    prop_delay = link.Mdr_topology.Graph.prop_delay;
    estimator;
    deliver;
    drop;
    buffer_packets;
    packets = [||];
    deps = [||];
    starts = [||];
    arrived = [||];
    services = [||];
    arrivals = [||];
    head = 0;
    count = 0;
    occupancy = { last_time = 0.0; last_value = 0.0; area = 0.0 };
    busy_time = { last_time = 0.0; last_value = 0.0; area = 0.0 };
    sent = 0;
    up = true;
  }

let src t = t.src
let dst t = t.dst
let capacity t = t.capacity
let prop_delay t = t.prop_delay

(* Complete every transmission that ended by now: the packet leaves the
   system, and the transmitter goes idle or starts on the next packet
   at that same instant. *)
let retire t =
  let now = t.clock.now and as_of = t.clock.firing_as_of in
  while
    t.count > 0
    &&
    let dep = t.deps.(t.head) in
    dep < now || (dep = now && t.starts.(t.head) <= as_of)
  do
    let i = t.head in
    let dep = t.deps.(i) in
    t.head <- (i + 1) land (Array.length t.deps - 1);
    t.count <- t.count - 1;
    t.sent <- t.sent + 1;
    set_value t.occupancy ~now:dep ~value:(float_of_int t.count);
    let waiting = t.count > 0 in
    Estimator.on_departure t.estimator ~sojourn:(dep -. t.arrived.(i))
      ~service:t.services.(i) ~busy:waiting;
    set_value t.busy_time ~now:dep ~value:(if waiting then 1.0 else 0.0)
  done

(* Double the ring, unrolled so the head is slot 0; the new slots are
   filled with the values about to be added. *)
let grow t packet ~dep ~start ~arrived ~service ~arrival =
  let cap = Array.length t.deps in
  let bigger = max 8 (2 * cap) in
  let unroll a fill =
    let b = Array.make bigger fill in
    for i = 0 to t.count - 1 do
      b.(i) <- a.((t.head + i) land (cap - 1))
    done;
    b
  in
  t.packets <- unroll t.packets packet;
  t.deps <- unroll t.deps dep;
  t.starts <- unroll t.starts start;
  t.arrived <- unroll t.arrived arrived;
  t.services <- unroll t.services service;
  t.arrivals <- unroll t.arrivals arrival;
  t.head <- 0

let send t packet =
  retire t;
  let full =
    match t.buffer_packets with Some b -> t.count >= b | None -> false
  in
  if (not t.up) || full then t.drop packet
  else begin
    let now = t.clock.now in
    set_value t.occupancy ~now ~value:(float_of_int (t.count + 1));
    Estimator.on_arrival t.estimator;
    let service = packet.Packet.size /. t.capacity in
    let start =
      if t.count = 0 then begin
        set_value t.busy_time ~now ~value:1.0;
        now
      end
      else t.deps.((t.head + t.count - 1) land (Array.length t.deps - 1))
    in
    let dep = start +. service in
    let arrival =
      Engine.schedule_as_of t.engine ~as_of:dep ~time:(dep +. t.prop_delay) (fun () ->
          t.deliver packet)
    in
    if t.count = Array.length t.deps then
      grow t packet ~dep ~start ~arrived:now ~service ~arrival;
    let i = (t.head + t.count) land (Array.length t.deps - 1) in
    t.packets.(i) <- packet;
    t.deps.(i) <- dep;
    t.starts.(i) <- start;
    t.arrived.(i) <- now;
    t.services.(i) <- service;
    t.arrivals.(i) <- arrival;
    t.count <- t.count + 1
  end

let is_up t = t.up

let fail t =
  if t.up then begin
    retire t;
    t.up <- false;
    let now = t.clock.now in
    (* Departed packets still arrive. The rest never do: the queued
       ones are fed to [drop] in queue order; the one in service is
       lost without a drop record. *)
    for k = 0 to t.count - 1 do
      let i = (t.head + k) land (Array.length t.deps - 1) in
      Engine.cancel t.engine t.arrivals.(i);
      if k > 0 then t.drop t.packets.(i)
    done;
    t.count <- 0;
    set_value t.occupancy ~now ~value:0.0;
    set_value t.busy_time ~now ~value:0.0
  end

let restore t = t.up <- true

let sample_cost t =
  retire t;
  Estimator.sample t.estimator ~now:(t.clock.now)

let queue_length t =
  retire t;
  t.count

let mean_queue t =
  retire t;
  average t.occupancy ~now:(t.clock.now)

let utilization t =
  retire t;
  average t.busy_time ~now:(t.clock.now)

let packets_sent t =
  retire t;
  t.sent
