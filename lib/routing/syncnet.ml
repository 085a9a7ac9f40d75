(* Synchronous control-plane pump: the one FIFO network behind the
   route server and the large-topology convergence measurements.

   The event-driven {!Network} harness carries timestamps, channel
   models, transports and observers — right for protocol correctness
   studies, too heavy to stand up 1000+ routers. This harness strips
   the embedding to the minimum the router state machine needs: a
   single global FIFO of (from, to, msg) and deterministic delivery
   order. No clocks, no faults; convergence cost is measured in
   messages delivered and wall time, not simulated seconds. *)

module Graph = Mdr_topology.Graph

type t = {
  n : int;
  routers : Router.t array;
  q : (int * int * Router.msg) Queue.t;  (* (from, to, msg), FIFO *)
  mutable delivered : int;
}

let push_outputs t ~from outputs =
  List.iter
    (fun (o : Router.output) -> Queue.add (from, o.Router.dst, o.Router.msg) t.q)
    outputs

let of_routers routers =
  { n = Array.length routers; routers; q = Queue.create (); delivered = 0 }

let link_up t ~src ~dst ~cost =
  push_outputs t ~from:src (Router.handle_link_up t.routers.(src) ~nbr:dst ~cost)

let link_down t ~src ~dst =
  push_outputs t ~from:src (Router.handle_link_down t.routers.(src) ~nbr:dst)

let create ~topo ~cost () =
  let n = Graph.node_count topo in
  let t = of_routers (Array.init n (fun id -> Router.create ~mode:Router.Mpda ~id ~n ())) in
  (* Bring every adjacency up in deterministic link order; the initial
     full-table exchanges queue up behind one another exactly like any
     other message. *)
  List.iter
    (fun (l : Graph.link) -> link_up t ~src:l.src ~dst:l.dst ~cost:(cost l))
    (Graph.links topo);
  t

let node_count t = t.n
let router t i = t.routers.(i)
let messages_delivered t = t.delivered

let run ?(max_messages = max_int) t =
  let ok = ref true in
  while (not (Queue.is_empty t.q)) && !ok do
    if t.delivered >= max_messages then ok := false
    else begin
      let from_, dst, msg = Queue.pop t.q in
      t.delivered <- t.delivered + 1;
      push_outputs t ~from:dst (Router.handle_msg t.routers.(dst) ~from_ msg)
    end
  done;
  !ok

let quiescent t =
  Queue.is_empty t.q && Array.for_all Router.is_passive t.routers

let change_link_cost t ~src ~dst ~cost =
  push_outputs t ~from:src
    (Router.handle_link_cost t.routers.(src) ~nbr:dst ~cost)

let check_distances t table =
  (* Every router's distance vector must equal a from-scratch Dijkstra
     on the reference topology — the convergence criterion (Theorem 2)
     checked exactly, not approximately. *)
  let ws = Dijkstra.workspace () in
  let dist = Array.make t.n infinity and parent = Array.make t.n (-1) in
  let ok = ref true in
  for root = 0 to t.n - 1 do
    if !ok then begin
      Dijkstra.on_table_into ws ~n:t.n ~root ~dist ~parent table;
      for j = 0 to t.n - 1 do
        if not (Float.equal (Router.distance t.routers.(root) ~dst:j) dist.(j))
        then ok := false
      done
    end
  done;
  !ok

let spf_totals t =
  Array.fold_left
    (fun (full, rep, fb) r ->
      let s = Router.spf_stats r in
      ( full + s.Incr_spf.full_runs,
        rep + s.Incr_spf.repairs,
        fb + s.Incr_spf.fallbacks ))
    (0, 0, 0) t.routers
