module Engine = Mdr_eventsim.Engine
module Estimator = Mdr_costs.Estimator
module Stats = Mdr_util.Stats

type entry = { packet : Packet.t; arrived : float }

type t = {
  engine : Engine.t;
  src : int;
  dst : int;
  capacity : float;  (* bits/s *)
  prop_delay : float;
  estimator : Estimator.t;
  deliver : Packet.t -> unit;
  queue : entry Queue.t;
  mutable busy : bool;
  occupancy : Stats.Timed.t;
  busy_time : Stats.Timed.t;
  mutable in_system : int;
  mutable sent : int;
  mutable up : bool;
  mutable generation : int;  (* transmission events of older generations are stale *)
  drop : Packet.t -> unit;
  buffer_packets : int option;
}

let create ?buffer_packets ~engine ~link ~estimator ~deliver ~drop () =
  (match buffer_packets with
  | Some b when b < 1 -> invalid_arg "Link.create: buffer_packets < 1"
  | Some _ | None -> ());
  {
    engine;
    src = link.Mdr_topology.Graph.src;
    dst = link.Mdr_topology.Graph.dst;
    capacity = link.Mdr_topology.Graph.capacity;
    prop_delay = link.Mdr_topology.Graph.prop_delay;
    estimator;
    deliver;
    queue = Queue.create ();
    busy = false;
    occupancy = Stats.Timed.create ();
    busy_time = Stats.Timed.create ();
    in_system = 0;
    sent = 0;
    up = true;
    generation = 0;
    drop;
    buffer_packets;
  }

let src t = t.src
let dst t = t.dst
let capacity t = t.capacity
let prop_delay t = t.prop_delay

let rec start_transmission t =
  if Queue.is_empty t.queue then begin
    t.busy <- false;
    Stats.Timed.update t.busy_time ~now:(Engine.now t.engine) ~value:0.0
  end
  else begin
    let { packet; arrived } = Queue.take t.queue in
    t.busy <- true;
    Stats.Timed.update t.busy_time ~now:(Engine.now t.engine) ~value:1.0;
    let service = packet.Packet.size /. t.capacity in
    let generation = t.generation in
    ignore
      (Engine.schedule t.engine ~delay:service (fun () ->
           (* A failure between start and completion invalidates this
              transmission. *)
           if generation = t.generation then begin
             let now = Engine.now t.engine in
             t.in_system <- t.in_system - 1;
             t.sent <- t.sent + 1;
             Stats.Timed.update t.occupancy ~now ~value:(float_of_int t.in_system);
             let still_busy = not (Queue.is_empty t.queue) in
             Estimator.on_departure t.estimator ~now ~sojourn:(now -. arrived)
               ~service ~busy:still_busy;
             ignore
               (Engine.schedule t.engine ~delay:t.prop_delay (fun () ->
                    t.deliver packet));
             start_transmission t
           end))
  end

let send t packet =
  let full =
    match t.buffer_packets with Some b -> t.in_system >= b | None -> false
  in
  if (not t.up) || full then t.drop packet
  else begin
    let now = Engine.now t.engine in
    t.in_system <- t.in_system + 1;
    Stats.Timed.update t.occupancy ~now ~value:(float_of_int t.in_system);
    Estimator.on_arrival t.estimator ~now;
    Queue.add { packet; arrived = now } t.queue;
    if not t.busy then start_transmission t
  end

let is_up t = t.up

let fail t =
  if t.up then begin
    t.up <- false;
    t.generation <- t.generation + 1;
    let now = Engine.now t.engine in
    (* Everything queued or in service is lost. *)
    Queue.iter (fun { packet; _ } -> t.drop packet) t.queue;
    Queue.clear t.queue;
    t.in_system <- 0;
    t.busy <- false;
    Stats.Timed.update t.occupancy ~now ~value:0.0;
    Stats.Timed.update t.busy_time ~now ~value:0.0
  end

let restore t =
  if not t.up then begin
    t.up <- true;
    t.generation <- t.generation + 1
  end

let sample_cost t = Estimator.sample t.estimator ~now:(Engine.now t.engine)

let queue_length t = t.in_system

let mean_queue t = Stats.Timed.average t.occupancy ~now:(Engine.now t.engine)

let utilization t = Stats.Timed.average t.busy_time ~now:(Engine.now t.engine)

let packets_sent t = t.sent
