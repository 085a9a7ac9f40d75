(** A simulated directed link: FIFO queue + transmitter + propagation
    pipe, with an attached cost estimator.

    The link never loses packets (the paper "assumes that the network
    does not lose any packets"); queues are unbounded and occupancy is
    tracked so experiments can report it. Transmission time is
    [size / capacity]; after transmission the packet propagates for the
    link's fixed delay and is handed to [deliver].

    A packet's departure time is fixed when it is queued, so a hop is
    one engine event, the arrival at the far end, scheduled as of the
    departure ({!Mdr_eventsim.Engine.schedule_as_of}). Departures are
    accounted lazily, with their own times, whenever the link is used
    or read. *)

type t

val create :
  ?buffer_packets:int ->
  engine:Mdr_eventsim.Engine.t ->
  link:Mdr_topology.Graph.link ->
  estimator:Mdr_costs.Estimator.t ->
  deliver:(Packet.t -> unit) ->
  drop:(Packet.t -> unit) ->
  unit ->
  t
(** [buffer_packets] bounds the number of packets queued or in service
    (tail drop); omitted = unbounded, the paper's lossless model.
    [drop] receives every packet lost to a full buffer or a failed
    link. *)

val src : t -> int
val dst : t -> int
val capacity : t -> float
val prop_delay : t -> float

val send : t -> Packet.t -> unit
(** Enqueue a packet for transmission. Packets sent on a failed link
    or into a full buffer are passed to the [drop] callback. *)

val is_up : t -> bool

val fail : t -> unit
(** Take the link down: queued packets are lost and fed to the [drop]
    callback in queue order; the packet in service is lost without
    being fed to it; packets already propagating still arrive.
    Idempotent. *)

val restore : t -> unit
(** Bring the link back up with an empty queue. Idempotent. *)

val sample_cost : t -> Mdr_costs.Estimator.sample
(** Close the estimator's measurement window (see
    {!Mdr_costs.Estimator.sample}). *)

val queue_length : t -> int
val mean_queue : t -> float
(** Time-averaged number of packets on the link since creation. *)

val utilization : t -> float
(** Fraction of elapsed time the transmitter was busy. *)

val packets_sent : t -> int
