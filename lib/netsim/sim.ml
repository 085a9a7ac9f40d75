module Graph = Mdr_topology.Graph
module Engine = Mdr_eventsim.Engine
module Rng = Mdr_util.Rng
module Stats = Mdr_util.Stats
module Router = Mdr_routing.Router
module Lfi = Mdr_routing.Lfi
module Estimator = Mdr_costs.Estimator
module Heuristics = Mdr_core.Heuristics

type scheme = Heuristics.scheme = Mp | Sp | Ecmp

type estimator_kind = Mm1 | Busy_period | Sojourn

type flow_spec = {
  src : int;
  dst : int;
  rate_bits : float;
  burst : (float * float) option;
}

type config = {
  scheme : scheme;
  t_l : float;
  t_s : float;
  mean_packet_size : float;
  sim_time : float;
  warmup : float;
  seed : int;
  estimator : estimator_kind;
  damping : float;
  timeline_bucket : float;
  buffer_packets : int option;
}

type event =
  | Fail_duplex of { at : float; a : int; b : int }
  | Restore_duplex of { at : float; a : int; b : int }
  | Crash_node of { at : float; node : int }
  | Restart_node of { at : float; node : int }

let event_time = function
  | Fail_duplex { at; _ }
  | Restore_duplex { at; _ }
  | Crash_node { at; _ }
  | Restart_node { at; _ } -> at

let default_config =
  {
    scheme = Mp;
    t_l = 10.0;
    t_s = 2.0;
    mean_packet_size = 4096.0;
    sim_time = 60.0;
    warmup = 10.0;
    seed = 1;
    estimator = Busy_period;
    damping = 1.0;
    timeline_bucket = 1.0;
    buffer_packets = None;
  }

type link_stat = {
  src : int;
  dst : int;
  utilization : float;
  mean_queue : float;
  packets : int;
}

type flow_stat = {
  spec : flow_spec;
  delivered : int;
  dropped : int;
  mean_delay : float;
  p95_delay : float;
  mean_hops : float;
}

type epoch_stat = {
  from_ : float;
  until_ : float;
  mean_delay : float;
  delivered : int;
  dropped : int;
}

type result = {
  flows : flow_stat list;
  avg_delay : float;
  total_delivered : int;
  total_dropped : int;
  goodput_fraction : float;
  shed_fraction : float;
  control_messages : int;
  max_mean_queue : float;
  loop_free_violations : int;
  delay_timeline : (float * float * int) list;
  links : link_stat list;
  epochs : epoch_stat list;
}

type link_state = {
  link : Link.t;
  mutable short_cost : float;  (* latest T_s estimate *)
  mutable long_cost : float;  (* mean of T_s estimates over last T_l *)
  mutable accum : float;
  mutable samples : int;
}

(* Per-node tables are arrays indexed by node id; walking [adj] or
   [0 .. n-1] visits neighbors and destinations in ascending order. *)
type node_state = {
  id : int;
  mutable router : Router.t;  (* replaced wholesale on a crash *)
  mutable alive : bool;
  out : link_state option array;  (* neighbor -> adjacent link *)
  mutable adj : (int * link_state) list;  (* [out]'s links, ascending by neighbor *)
  forwarding : (int * float) list array;  (* dst -> distribution; [] = none *)
  succ_used : int list array;  (* dst -> ascending successor set in use *)
  rng : Rng.t;
}

(* A flow's delays in arrival order, in a growable float buffer. *)
type delays = { mutable buf : float array; mutable len : int }

let add_delay d x =
  if d.len = Array.length d.buf then begin
    let bigger = Array.make (max 64 (2 * d.len)) 0.0 in
    Array.blit d.buf 0 bigger 0 d.len;
    d.buf <- bigger
  end;
  d.buf.(d.len) <- x;
  d.len <- d.len + 1

(* Summed newest first: float addition is not associative, and the
   committed figures were computed in this order. *)
let mean_delay d =
  if d.len = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = d.len - 1 downto 0 do
      sum := !sum +. d.buf.(i)
    done;
    !sum /. float_of_int d.len
  end

type sim = {
  topo : Graph.t;
  cfg : config;
  engine : Engine.t;
  nodes : node_state array;
  mutable loop_free_violations : int;
  flow_delays : delays array;
  delivered : int array;
  dropped : int array;
  hops_sum : int array;
  timeline_sum : float array;
  timeline_count : int array;
  (* Fault-epoch accounting: epoch i spans
     [epoch_bounds.(i), epoch_bounds.(i+1)) (the last one runs to the
     end of the simulation). Empty bounds = no fault events, no
     epoch reporting. *)
  epoch_bounds : float array;
  epoch_delay_sum : float array;
  epoch_delivered : int array;
  epoch_dropped : int array;
}

let epoch_of sim now =
  let rec last_leq i = if i <= 0 || sim.epoch_bounds.(i) <= now then i else last_leq (i - 1) in
  if Array.length sim.epoch_bounds = 0 then -1
  else last_leq (Array.length sim.epoch_bounds - 1)

let zero_flow_marginal cfg (l : Graph.link) =
  let c_pkts = l.capacity /. cfg.mean_packet_size in
  (1.0 /. c_pkts) +. l.prop_delay

let make_estimator cfg (l : Graph.link) =
  match cfg.estimator with
  | Mm1 ->
    Estimator.mm1 ~capacity:(l.capacity /. cfg.mean_packet_size)
      ~prop_delay:l.prop_delay
  | Busy_period -> Estimator.busy_period ~prop_delay:l.prop_delay
  | Sojourn -> Estimator.measured_sojourn ~prop_delay:l.prop_delay

(* --- Forwarding-table maintenance ----------------------------------- *)

(* Marginal distance through neighbor k for destination [dst], seen
   from node [ns]: the neighbor's reported distance plus the measured
   adjacent-link cost (long-term for IH at route changes, short-term
   for AH). *)
let through ns ~dst ~cost_of k =
  Router.neighbor_distance ns.router ~nbr:k ~dst +. cost_of k

(* Re-choose the successors in use toward [dst] among S_j and, when
   they moved, re-seed the forwarding distribution. Reads only [dst]'s
   slots, so destinations may be refreshed in any order. *)
let refresh_destination sim ns ~long_cost dst =
  let through k = through ns ~dst ~cost_of:long_cost k in
  let chosen =
    Heuristics.choose sim.cfg.scheme ~through (Router.successors ns.router ~dst)
  in
  if not (List.equal Int.equal chosen ns.succ_used.(dst)) then begin
    ns.succ_used.(dst) <- chosen;
    ns.forwarding.(dst) <- Heuristics.seed sim.cfg.scheme ~through chosen
  end

(* Called after every router event. The choice toward [dst] reads S_j,
   D_jk and the long-term costs; the router reports the destinations
   whose S_j or D_jk may have moved, and long-term costs move only at
   [long_term_tick], which refreshes [~all] destinations. *)
let refresh_forwarding ?(all = false) sim ns =
  let long_cost k =
    match ns.out.(k) with
    | Some ls -> ls.long_cost
    | None -> infinity
  in
  let changed = Router.changed_successors ns.router in
  let refresh dst = if dst <> ns.id then refresh_destination sim ns ~long_cost dst in
  if all then
    for dst = 0 to Graph.node_count sim.topo - 1 do
      refresh dst
    done
  else List.iter refresh changed

let adjust_forwarding sim ns =
  let short_cost k =
    match ns.out.(k) with
    | Some ls -> ls.short_cost
    | None -> infinity
  in
  Array.iteri
    (fun dst current ->
      match current with
      | [] | [ _ ] -> ()
      | _ ->
        ns.forwarding.(dst) <-
          Heuristics.adjust ~damping:sim.cfg.damping ~current
            ~through:(through ns ~dst ~cost_of:short_cost)
            ())
    ns.forwarding

(* --- Control plane ---------------------------------------------------- *)

let rec dispatch sim ~from_ outputs =
  List.iter
    (fun { Router.dst; msg } ->
      match sim.nodes.(from_).out.(dst) with
      | Some { link; _ } when Link.is_up link ->
        ignore
          (Engine.schedule sim.engine ~delay:(Link.prop_delay link) (fun () ->
               if Link.is_up link && sim.nodes.(dst).alive then begin
                 let ns = sim.nodes.(dst) in
                 let replies = Router.handle_msg ns.router ~from_ msg in
                 refresh_forwarding sim ns;
                 dispatch sim ~from_:dst replies
               end))
      | Some _ | None -> ())
    outputs

let long_term_tick sim ns =
  (* Fold the T_s samples of the closing interval into long-term costs
     and flood them through MPDA. *)
  List.iter
    (fun (_, ls) ->
      if ls.samples > 0 then ls.long_cost <- ls.accum /. float_of_int ls.samples;
      ls.accum <- 0.0;
      ls.samples <- 0)
    ns.adj;
  List.iter
    (fun (k, ls) ->
      let outputs = Router.handle_link_cost ns.router ~nbr:k ~cost:ls.long_cost in
      refresh_forwarding ~all:true sim ns;
      dispatch sim ~from_:ns.id outputs)
    ns.adj

let short_term_tick sim ns =
  List.iter
    (fun (_, ls) ->
      let sample = Link.sample_cost ls.link in
      ls.short_cost <- sample.Estimator.marginal;
      ls.accum <- ls.accum +. sample.Estimator.marginal;
      ls.samples <- ls.samples + 1)
    ns.adj;
  if Heuristics.uses_ah sim.cfg.scheme then adjust_forwarding sim ns

let check_loop_freedom sim =
  let n = Graph.node_count sim.topo in
  let ok =
    List.for_all
      (fun dst ->
        Lfi.successor_graph_acyclic ~n
          ~successors:(fun ~node -> sim.nodes.(node).succ_used.(dst))
          ~dst)
      (Graph.nodes sim.topo)
  in
  if not ok then sim.loop_free_violations <- sim.loop_free_violations + 1

(* --- Data plane -------------------------------------------------------- *)

let record_delivery sim (p : Packet.t) =
  let now = Engine.now sim.engine in
  (if p.flow_id >= 0 then
     let e = epoch_of sim now in
     if e >= 0 then begin
       sim.epoch_delay_sum.(e) <- sim.epoch_delay_sum.(e) +. (now -. p.created);
       sim.epoch_delivered.(e) <- sim.epoch_delivered.(e) + 1
     end);
  let bucket = int_of_float (now /. sim.cfg.timeline_bucket) in
  if bucket >= 0 && bucket < Array.length sim.timeline_sum && p.flow_id >= 0 then begin
    sim.timeline_sum.(bucket) <- sim.timeline_sum.(bucket) +. (now -. p.created);
    sim.timeline_count.(bucket) <- sim.timeline_count.(bucket) + 1
  end;
  if p.created >= sim.cfg.warmup && p.flow_id >= 0 then begin
    sim.delivered.(p.flow_id) <- sim.delivered.(p.flow_id) + 1;
    sim.hops_sum.(p.flow_id) <- sim.hops_sum.(p.flow_id) + p.hops;
    add_delay sim.flow_delays.(p.flow_id) (now -. p.created)
  end

let record_drop sim (p : Packet.t) =
  (if p.flow_id >= 0 then
     let e = epoch_of sim (Engine.now sim.engine) in
     if e >= 0 then sim.epoch_dropped.(e) <- sim.epoch_dropped.(e) + 1);
  if p.created >= sim.cfg.warmup && p.flow_id >= 0 then
    sim.dropped.(p.flow_id) <- sim.dropped.(p.flow_id) + 1

let rec forward sim node (p : Packet.t) =
  (* A dead node neither sources, relays nor sinks traffic: packets
     arriving at (or injected from) it are lost. *)
  if not sim.nodes.(node).alive then record_drop sim p
  else if node = p.dst then record_delivery sim p
  else if p.hops >= Packet.hop_limit then record_drop sim p
  else begin
    let ns = sim.nodes.(node) in
    match ns.forwarding.(p.dst) with
    | [] -> record_drop sim p
    | [ (k, _) ] -> transmit sim ns k p
    | entries ->
      (* Weighted choice per the routing parameters. *)
      let u = Rng.float ns.rng in
      let rec pick acc = function
        | [] -> fst (List.hd entries)
        | [ (k, _) ] -> k
        | (k, f) :: rest -> if u < acc +. f then k else pick (acc +. f) rest
      in
      transmit sim ns (pick 0.0 entries) p
  end

and transmit sim ns k p =
  match ns.out.(k) with
  | None -> record_drop sim p
  | Some ls ->
    if Link.is_up ls.link then begin
      p.hops <- p.hops + 1;
      Link.send ls.link p
    end
    else record_drop sim p

(* --- Assembly ---------------------------------------------------------- *)

let run ?(config = default_config) ?(events = []) topo flow_specs =
  if config.t_s <= 0.0 || config.t_l < config.t_s then
    invalid_arg "Sim.run: need 0 < t_s <= t_l";
  if config.timeline_bucket <= 0.0 then
    invalid_arg "Sim.run: timeline_bucket <= 0";
  let n = Graph.node_count topo in
  let engine = Engine.create () in
  let master_rng = Rng.create ~seed:config.seed in
  let nflows = List.length flow_specs in
  let nodes =
    Array.init n (fun id ->
        {
          id;
          router = Router.create ~mode:Router.Mpda ~id ~n ();
          alive = true;
          out = Array.make n None;
          adj = [];
          forwarding = Array.make n [];
          succ_used = Array.make n [];
          rng = Rng.split master_rng;
        })
  in
  let buckets = int_of_float (config.sim_time /. config.timeline_bucket) + 1 in
  let epoch_bounds =
    match events with
    | [] -> [||]
    | _ ->
      let times = Array.of_list (List.map event_time events) in
      Array.sort Float.compare times;
      let bounds = ref [] in
      Array.iter
        (fun t ->
          if t > 0.0 then
            match !bounds with
            | prev :: _ when Float.equal prev t -> ()
            | _ -> bounds := t :: !bounds)
        times;
      Array.of_list (0.0 :: List.rev !bounds)
  in
  let nepochs = Array.length epoch_bounds in
  let sim =
    {
      topo;
      cfg = config;
      engine;
      nodes;
      loop_free_violations = 0;
      flow_delays = Array.init nflows (fun _ -> { buf = [||]; len = 0 });
      delivered = Array.make nflows 0;
      dropped = Array.make nflows 0;
      hops_sum = Array.make nflows 0;
      timeline_sum = Array.make buckets 0.0;
      timeline_count = Array.make buckets 0;
      epoch_bounds;
      epoch_delay_sum = Array.make nepochs 0.0;
      epoch_delivered = Array.make nepochs 0;
      epoch_dropped = Array.make nepochs 0;
    }
  in
  (* Data-plane links with their estimators. *)
  List.iter
    (fun (l : Graph.link) ->
      let estimator = make_estimator config l in
      let deliver p = forward sim l.dst p in
      let ls =
        {
          link =
            Link.create ?buffer_packets:config.buffer_packets ~engine ~link:l
              ~estimator ~deliver ~drop:(record_drop sim) ();
          short_cost = zero_flow_marginal config l;
          long_cost = zero_flow_marginal config l;
          accum = 0.0;
          samples = 0;
        }
      in
      nodes.(l.src).out.(l.dst) <- Some ls)
    (Graph.links topo);
  Array.iter
    (fun ns ->
      ns.adj <-
        List.filter_map
          (fun k -> Option.map (fun ls -> (k, ls)) ns.out.(k))
          (List.init n Fun.id))
    nodes;
  (* Bring the control plane up at t = 0 with zero-flow costs. *)
  List.iter
    (fun (l : Graph.link) ->
      ignore
        (Engine.schedule engine ~delay:0.0 (fun () ->
             let ns = nodes.(l.src) in
             let outputs =
               Router.handle_link_up ns.router ~nbr:l.dst
                 ~cost:(zero_flow_marginal config l)
             in
             refresh_forwarding sim ns;
             dispatch sim ~from_:l.src outputs)))
    (Graph.links topo);
  (* Per-node timers, randomly phased. *)
  Array.iter
    (fun ns ->
      let phase_s = Rng.uniform ns.rng ~lo:0.0 ~hi:config.t_s in
      let phase_l = Rng.uniform ns.rng ~lo:0.0 ~hi:config.t_l in
      (* Timers keep firing while the node is down but do nothing — so
         a restarted node resumes measuring on its original phase. *)
      let rec s_tick () =
        if ns.alive then short_term_tick sim ns;
        if Engine.now engine +. config.t_s <= config.sim_time then
          ignore (Engine.schedule engine ~delay:config.t_s s_tick)
      in
      let rec l_tick () =
        if ns.alive then long_term_tick sim ns;
        if Engine.now engine +. config.t_l <= config.sim_time then
          ignore (Engine.schedule engine ~delay:config.t_l l_tick)
      in
      ignore (Engine.schedule engine ~delay:phase_s s_tick);
      ignore (Engine.schedule engine ~delay:phase_l l_tick))
    nodes;
  (* Instantaneous loop-freedom audit, twice per T_s. *)
  let rec audit () =
    check_loop_freedom sim;
    if Engine.now engine +. (config.t_s /. 2.0) <= config.sim_time then
      ignore (Engine.schedule engine ~delay:(config.t_s /. 2.0) audit)
  in
  ignore (Engine.schedule engine ~delay:(config.t_s /. 2.0) audit);
  (* Topology events: data-plane link failures and restorations, with
     the control plane notified at the endpoints. *)
  let admin_down = Hashtbl.create 4 in
  let fail_direction ~src ~dst =
    match nodes.(src).out.(dst) with
    | None -> ()
    | Some ls ->
      Link.fail ls.link;
      if nodes.(src).alive then begin
        let outputs = Router.handle_link_down nodes.(src).router ~nbr:dst in
        refresh_forwarding sim nodes.(src);
        dispatch sim ~from_:src outputs
      end
  in
  let restore_direction ~src ~dst =
    match nodes.(src).out.(dst) with
    | None -> ()
    | Some ls ->
      if nodes.(src).alive && nodes.(dst).alive then begin
        Link.restore ls.link;
        (* Re-announce with the last known long-term cost. *)
        let outputs =
          Router.handle_link_up nodes.(src).router ~nbr:dst ~cost:ls.long_cost
        in
        refresh_forwarding sim nodes.(src);
        dispatch sim ~from_:src outputs
      end
  in
  let crash_node node =
    let ns = nodes.(node) in
    if ns.alive then begin
      ns.alive <- false;
      (* Every adjacent link goes down; queued and in-service packets
         are lost. Live neighbors detect the loss and reconverge. *)
      List.iter (fun (_, ls) -> Link.fail ls.link) ns.adj;
      List.iter (fun k -> fail_direction ~src:k ~dst:node) (Graph.neighbors topo node);
      (* The node loses all routing state. *)
      ns.router <- Router.create ~mode:Router.Mpda ~id:node ~n ();
      Array.fill ns.forwarding 0 n [];
      Array.fill ns.succ_used 0 n []
    end
  in
  let restart_node node =
    let ns = nodes.(node) in
    if not ns.alive then begin
      ns.alive <- true;
      List.iter
        (fun k ->
          if not (Hashtbl.mem admin_down (min node k, max node k)) then begin
            restore_direction ~src:node ~dst:k;
            restore_direction ~src:k ~dst:node
          end)
        (Graph.neighbors topo node)
    end
  in
  List.iter
    (fun event ->
      match event with
      | Fail_duplex { at; a; b } ->
        ignore
          (Engine.schedule_at engine ~time:at (fun () ->
               Hashtbl.replace admin_down (min a b, max a b) ();
               fail_direction ~src:a ~dst:b;
               fail_direction ~src:b ~dst:a))
      | Restore_duplex { at; a; b } ->
        ignore
          (Engine.schedule_at engine ~time:at (fun () ->
               Hashtbl.remove admin_down (min a b, max a b);
               restore_direction ~src:a ~dst:b;
               restore_direction ~src:b ~dst:a))
      | Crash_node { at; node } ->
        ignore (Engine.schedule_at engine ~time:at (fun () -> crash_node node))
      | Restart_node { at; node } ->
        ignore (Engine.schedule_at engine ~time:at (fun () -> restart_node node)))
    events;
  (* Traffic sources. *)
  List.iteri
    (fun flow_id spec ->
      let rng = Rng.split master_rng in
      let gen =
        match spec.burst with
        | None ->
          Traffic_gen.poisson ~rng ~rate_bits:spec.rate_bits
            ~mean_packet_size:config.mean_packet_size
        | Some (on_mean, off_mean) ->
          Traffic_gen.on_off ~rng ~rate_bits:spec.rate_bits
            ~mean_packet_size:config.mean_packet_size ~on_mean ~off_mean
      in
      Traffic_gen.start gen ~engine ~flow_id ~src:spec.src ~dst:spec.dst
        ~inject:(fun p -> forward sim spec.src p)
        ~until:config.sim_time)
    flow_specs;
  Engine.run ~until:config.sim_time engine;
  (* Collect statistics. *)
  let flows =
    List.mapi
      (fun flow_id spec ->
        let delays = sim.flow_delays.(flow_id) in
        {
          spec;
          delivered = sim.delivered.(flow_id);
          dropped = sim.dropped.(flow_id);
          mean_delay = mean_delay delays;
          p95_delay =
            (if delays.len = 0 then 0.0
             else Stats.percentile_array (Array.sub delays.buf 0 delays.len) ~p:95.0);
          mean_hops =
            (if sim.delivered.(flow_id) = 0 then 0.0
             else
               float_of_int sim.hops_sum.(flow_id)
               /. float_of_int sim.delivered.(flow_id));
        })
      flow_specs
  in
  let total_delivered = Array.fold_left ( + ) 0 sim.delivered in
  let total_dropped = Array.fold_left ( + ) 0 sim.dropped in
  let all_delay_sum =
    List.fold_left
      (fun acc (fs : flow_stat) -> acc +. (fs.mean_delay *. float_of_int fs.delivered))
      0.0 flows
  in
  let max_mean_queue =
    Array.fold_left
      (fun acc ns ->
        List.fold_left
          (fun acc (_, ls) -> Float.max acc (Link.mean_queue ls.link))
          acc ns.adj)
      0.0 nodes
  in
  let links =
    Array.to_list nodes
    |> List.concat_map (fun ns ->
           List.map
             (fun (dst, { link; _ }) ->
               {
                 src = ns.id;
                 dst;
                 utilization = Link.utilization link;
                 mean_queue = Link.mean_queue link;
                 packets = Link.packets_sent link;
               })
             ns.adj)
  in
  let delay_timeline =
    List.filter_map
      (fun bucket ->
        let count = sim.timeline_count.(bucket) in
        if count = 0 then None
        else
          Some
            ( float_of_int bucket *. config.timeline_bucket,
              sim.timeline_sum.(bucket) /. float_of_int count,
              count ))
      (List.init buckets Fun.id)
  in
  {
    flows;
    avg_delay =
      (if total_delivered = 0 then 0.0
       else all_delay_sum /. float_of_int total_delivered);
    total_delivered;
    total_dropped;
    goodput_fraction =
      (let settled = total_delivered + total_dropped in
       if settled = 0 then 1.0
       else float_of_int total_delivered /. float_of_int settled);
    shed_fraction =
      (let settled = total_delivered + total_dropped in
       if settled = 0 then 0.0
       else float_of_int total_dropped /. float_of_int settled);
    control_messages =
      Array.fold_left (fun acc ns -> acc + Router.stats_messages_sent ns.router) 0 nodes;
    max_mean_queue;
    loop_free_violations = sim.loop_free_violations;
    delay_timeline;
    links;
    epochs =
      List.init nepochs (fun i ->
          let until_ =
            if i + 1 < nepochs then epoch_bounds.(i + 1) else config.sim_time
          in
          let delivered = sim.epoch_delivered.(i) in
          {
            from_ = epoch_bounds.(i);
            until_;
            mean_delay =
              (if delivered = 0 then 0.0
               else sim.epoch_delay_sum.(i) /. float_of_int delivered);
            delivered;
            dropped = sim.epoch_dropped.(i);
          });
  }
