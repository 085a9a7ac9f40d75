(** The packet-level simulation of the full system: MPDA routers
    exchanging LSUs, per-link online cost estimation, the two-timescale
    MP traffic distribution (IH + AH), and stochastic traffic — the
    paper's Section 5 experimental setup.

    Every router keeps its own T_l and T_s timers, randomly phased (the
    paper: "long-term update periods should be phased randomly at each
    router"). At each T_l tick a router samples its adjacent links'
    estimators and floods the new costs through MPDA; whenever its
    successor set for a destination changes it re-seeds that entry's
    fractions with IH; at each T_s tick it re-measures the adjacent
    links only and adjusts fractions with AH. [Sp] restricts
    forwarding to the best successor, turning the same machinery into
    the single-path baseline; [Ecmp] keeps only equal-cost successors
    with an even split and no AH — OSPF-style multipath. These choices
    are {!Mdr_core.Heuristics.choose}, {!Mdr_core.Heuristics.seed} and
    {!Mdr_core.Heuristics.uses_ah}, the policy the fluid controller
    runs too; the candidates here are the router's MPDA successor set. *)

type scheme = Mdr_core.Heuristics.scheme = Mp | Sp | Ecmp

type estimator_kind = Mm1 | Busy_period | Sojourn

type flow_spec = {
  src : int;
  dst : int;
  rate_bits : float;
  burst : (float * float) option;
      (** [(on_mean, off_mean)] for on-off sources; [None] = Poisson *)
}

type config = {
  scheme : scheme;
  t_l : float;  (** long-term update period, seconds *)
  t_s : float;  (** short-term update period, seconds *)
  mean_packet_size : float;  (** bits *)
  sim_time : float;  (** total simulated seconds *)
  warmup : float;  (** delays of packets created before this are ignored *)
  seed : int;
  estimator : estimator_kind;
  damping : float;  (** AH damping *)
  timeline_bucket : float;  (** width of the delay-timeline buckets, seconds *)
  buffer_packets : int option;
      (** per-link queue bound (tail drop); [None] = unbounded, the
          paper's lossless model *)
}

type event =
  | Fail_duplex of { at : float; a : int; b : int }
      (** both directions of the (a, b) link fail; queued packets are
          lost, MPDA reconverges around it *)
  | Restore_duplex of { at : float; a : int; b : int }
  | Crash_node of { at : float; node : int }
      (** the node dies: every adjacent link fails (queued and
          in-service packets are lost), live neighbors detect the loss
          and reconverge, and the node forgets all routing state *)
  | Restart_node of { at : float; node : int }
      (** the node comes back with a blank router and re-forms
          adjacencies with its live neighbors (links taken down by a
          {!Fail_duplex} that has not been restored stay down) *)

val default_config : config
(** MP, T_l = 10 s, T_s = 2 s, 4096-bit packets, 60 s runs, 10 s
    warmup, busy-period estimator, full AH step, seed 1. *)

type link_stat = {
  src : int;
  dst : int;
  utilization : float;  (** fraction of time the transmitter was busy *)
  mean_queue : float;  (** time-averaged packets queued or in service *)
  packets : int;  (** packets transmitted *)
}

type flow_stat = {
  spec : flow_spec;
  delivered : int;
  dropped : int;
  mean_delay : float;  (** seconds; 0 when nothing was delivered *)
  p95_delay : float;
  mean_hops : float;  (** forwarding steps per delivered packet *)
}

type epoch_stat = {
  from_ : float;
  until_ : float;  (** exclusive; the last epoch ends at [sim_time] *)
  mean_delay : float;  (** seconds over packets {e delivered} in the epoch *)
  delivered : int;
  dropped : int;
}
(** Delay/loss degradation between consecutive fault events. Epoch
    boundaries are the distinct event times (plus t = 0); unlike the
    flow statistics, epoch counters ignore the warmup cutoff so the
    degradation around each fault is visible wherever it falls. *)

type result = {
  flows : flow_stat list;  (** same order as the input specs *)
  avg_delay : float;  (** delivered-packet average over all flows *)
  total_delivered : int;
  total_dropped : int;
  goodput_fraction : float;
      (** delivered / (delivered + dropped) over all flows — the packet
          analogue of the fluid admitted fraction. 1.0 when nothing was
          settled. Packets are shed here by tail drop
          ([buffer_packets]) and by fault-induced queue loss, so this is
          the degradation contract's goodput under overload. *)
  shed_fraction : float;
      (** dropped / (delivered + dropped); complements
          [goodput_fraction] *)
  control_messages : int;  (** LSUs sent by all routers *)
  max_mean_queue : float;  (** worst time-averaged link occupancy *)
  loop_free_violations : int;
      (** successor-graph acyclicity failures observed at T_l ticks —
          must be 0 for MPDA-based schemes *)
  delay_timeline : (float * float * int) list;
      (** (bucket start, mean delay of packets delivered in the bucket,
          count) — includes the warmup, for plotting transients *)
  links : link_stat list;
      (** per-directed-link statistics, sorted by (src, dst) *)
  epochs : epoch_stat list;
      (** per-fault-epoch delay/loss, in time order; empty when the run
          had no events *)
}

val run :
  ?config:config -> ?events:event list -> Mdr_topology.Graph.t ->
  flow_spec list -> result
