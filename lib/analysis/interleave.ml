(* Bounded exhaustive model checking of MPDA message interleavings.

   The chaos campaign audits the LFI conditions on the interleavings
   the event engine happens to produce; loop-freedom bugs in multipath
   routing protocols hide precisely in the orderings a simulator never
   draws (cf. the mDT / LFI literature). This checker closes that gap
   on small scopes: it takes a 3-5 node topology, brings every link up,
   and then explores *every* ordering of the in-flight control
   messages — optionally with one link-cost change and a bounded
   number of message losses injected at any point — asserting after
   every transition that, for every destination,

   - the successor graph is acyclic ([Lfi.successor_graph_acyclic]),
   - the LFI conditions hold ([Lfi.lfi_conditions_hold]).

   Model: each directed link carries a FIFO queue of router-level
   messages (the reliable transport delivers in order per link, so
   cross-link interleaving is exactly the nondeterminism the real
   system exhibits). A state is the array of router states plus the
   queues plus the not-yet-fired fault budget; transitions are
   "deliver the head of some queue", "lose the head of some queue"
   (budget permitting), or "apply the pending cost change at one
   endpoint".

   Exploration is breadth-first with replay: the frontier stores only
   action traces, and states are reconstructed by replaying the trace
   from the initial state. States are copy-on-write: a successor shares
   every router with its parent except the one its action reaches,
   which it copies through the router's codec
   ([Router.restore ~n (Router.snapshot r)]) before changing it. The
   shared routers' fingerprints are shared too, so each successor
   fingerprints one router. Visited states are deduplicated by a digest
   of the canonical state serialization ([Router.fingerprint] plus
   queue contents), so the search is exhaustive over distinct states,
   not distinct traces. Because the search is breadth-first, the first
   violation found is reached by a minimal-length action trace — the
   printed counterexample cannot be shortened without losing the
   violation. *)

module Graph = Mdr_topology.Graph
module Router = Mdr_routing.Router
module Topo_table = Mdr_routing.Topo_table
module Lfi = Mdr_routing.Lfi

type action =
  | Deliver of { src : int; dst : int }
  | Lose of { src : int; dst : int }
  | Change_cost of { src : int; dst : int; cost : float }

type scenario = {
  name : string;
  topo : Graph.t;
  cost : Graph.link -> float;
  change : (int * int * float) option;
      (* one duplex link-cost change; each direction becomes an
         independently schedulable action *)
  losses : int;  (* how many messages the adversary may destroy *)
  max_states : int;
}

type invariant = {
  inv_name : string;
  holds : Router.t array -> dst:int -> bool;
}

type violation = {
  failed : string;  (* invariant name *)
  at_dst : int;
  trace : action list;  (* minimal-length reproduction from the initial state *)
}

type stats = {
  scenario_name : string;
  states : int;  (* distinct states visited (including the initial one) *)
  transitions : int;
  max_depth : int;
  complete : bool;  (* false iff the state budget was exhausted *)
  violation : violation option;
}

(* --- Invariants -------------------------------------------------------- *)

let acyclic_invariant =
  {
    inv_name = "successor-graph-acyclic";
    holds =
      (fun routers ~dst ->
        let n = Array.length routers in
        Lfi.successor_graph_acyclic ~n
          ~successors:(fun ~node -> Router.successors routers.(node) ~dst)
          ~dst);
  }

let lfi_invariant =
  {
    inv_name = "lfi-conditions";
    holds =
      (fun routers ~dst ->
        let n = Array.length routers in
        Lfi.lfi_conditions_hold ~n
          ~neighbors:(fun node -> Router.up_neighbors routers.(node))
          ~feasible:(fun ~node ~dst -> Router.feasible_distance routers.(node) ~dst)
          ~reported:(fun ~holder ~about ~dst ->
            Router.neighbor_distance routers.(holder) ~nbr:about ~dst)
          ~dst);
  }

let standard_invariants = [ acyclic_invariant; lfi_invariant ]

(* A deliberately broken feasibility condition for negative testing: it
   demands FD_j stay a full unit below every neighbor's report, which
   MPDA neither promises nor delivers — the checker must find a
   violating interleaving and minimize it. *)
let broken_feasibility_invariant =
  {
    inv_name = "broken-feasibility-margin";
    holds =
      (fun routers ~dst ->
        let n = Array.length routers in
        Lfi.lfi_conditions_hold ~n
          ~neighbors:(fun node -> Router.up_neighbors routers.(node))
          ~feasible:(fun ~node ~dst ->
            Router.feasible_distance routers.(node) ~dst +. 1.0)
          ~reported:(fun ~holder ~about ~dst ->
            Router.neighbor_distance routers.(holder) ~nbr:about ~dst)
          ~dst);
  }

(* --- Model state ------------------------------------------------------- *)

type state = {
  routers : Router.t array;  (* shared with the state copied from, except where owned *)
  owned : bool array;  (* the routers this state copied and may change *)
  fingerprints : string array;  (* [""] where a router changed since its last one *)
  queues : Router.msg Queue.t array array;  (* queues.(src).(dst) *)
  mutable changes_left : (int * int * float) list;
  mutable losses_left : int;
}

let copy_state st =
  {
    routers = Array.copy st.routers;
    owned = Array.make (Array.length st.routers) false;
    fingerprints = Array.copy st.fingerprints;
    queues = Array.map (Array.map Queue.copy) st.queues;
    changes_left = st.changes_left;
    losses_left = st.losses_left;
  }

(* Router [i], about to change: copied through its codec first unless
   this state already owns it, so the states sharing it never see the
   change. *)
let changing st i =
  if not st.owned.(i) then begin
    st.routers.(i) <- Router.restore ~n:(Array.length st.routers) (Router.snapshot st.routers.(i));
    st.owned.(i) <- true
  end;
  st.fingerprints.(i) <- "";
  st.routers.(i)

let fill_fingerprints st =
  Array.iteri
    (fun i fp -> if String.equal fp "" then st.fingerprints.(i) <- Router.fingerprint st.routers.(i))
    st.fingerprints

let enqueue_outputs st ~from_ outputs =
  List.iter
    (fun (o : Router.output) -> Queue.add o.Router.msg st.queues.(from_).(o.Router.dst))
    outputs

let initial_state scenario =
  let n = Graph.node_count scenario.topo in
  let st =
    {
      routers = Array.init n (fun id -> Router.create ~mode:Router.Mpda ~id ~n ());
      owned = Array.make n true;
      fingerprints = Array.make n "";
      queues = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ()));
      changes_left =
        (match scenario.change with
        | None -> []
        | Some (a, b, c) -> [ (a, b, c); (b, a, c) ]);
      losses_left = scenario.losses;
    }
  in
  (* Bring every directed link up before any message is delivered,
     exactly as the harness schedules link-ups at t = 0 with positive
     propagation delays. Insertion order of [Graph.links] is fixed, so
     the initial state is deterministic. *)
  List.iter
    (fun (l : Graph.link) ->
      let outputs =
        Router.handle_link_up st.routers.(l.src) ~nbr:l.dst ~cost:(scenario.cost l)
      in
      enqueue_outputs st ~from_:l.src outputs)
    (Graph.links scenario.topo);
  st

let enabled_actions st =
  let n = Array.length st.routers in
  let acts = ref [] in
  List.iter
    (fun (src, dst, cost) -> acts := Change_cost { src; dst; cost } :: !acts)
    st.changes_left;
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if not (Queue.is_empty st.queues.(src).(dst)) then begin
        if st.losses_left > 0 then acts := Lose { src; dst } :: !acts;
        acts := Deliver { src; dst } :: !acts
      end
    done
  done;
  !acts

let apply st action =
  match action with
  | Deliver { src; dst } ->
    let msg = Queue.pop st.queues.(src).(dst) in
    enqueue_outputs st ~from_:dst (Router.handle_msg (changing st dst) ~from_:src msg)
  | Lose { src; dst } ->
    ignore (Queue.pop st.queues.(src).(dst));
    st.losses_left <- st.losses_left - 1
  | Change_cost { src; dst; cost } ->
    st.changes_left <-
      List.filter (fun (a, b, _) -> not (a = src && b = dst)) st.changes_left;
    enqueue_outputs st ~from_:src (Router.handle_link_cost (changing st src) ~nbr:dst ~cost)

(* --- Canonical digest -------------------------------------------------- *)

let msg_fp (b : Buffer.t) (m : Router.msg) =
  Buffer.add_string b (if m.Router.reset then "R" else "d");
  (match m.Router.seq with
  | Some s -> Buffer.add_string b (Printf.sprintf "s%d" s)
  | None -> ());
  (match m.Router.ack_of with
  | Some s -> Buffer.add_string b (Printf.sprintf "a%d" s)
  | None -> ());
  List.iter
    (fun (e : Topo_table.entry) ->
      Buffer.add_string b (Printf.sprintf "%d>%d:%h," e.head e.tail e.cost))
    m.Router.entries;
  Buffer.add_char b '.'

let digest st =
  fill_fingerprints st;
  let b = Buffer.create 1024 in
  Array.iter (Buffer.add_string b) st.fingerprints;
  Array.iteri
    (fun src row ->
      Array.iteri
        (fun dst q ->
          if not (Queue.is_empty q) then begin
            Buffer.add_string b (Printf.sprintf "|q%d>%d:" src dst);
            Queue.iter (msg_fp b) q
          end)
        row)
    st.queues;
  List.iter
    (fun (a, bb, c) -> Buffer.add_string b (Printf.sprintf "|c%d>%d:%h" a bb c))
    st.changes_left;
  Buffer.add_string b (Printf.sprintf "|l%d" st.losses_left);
  Digest.string (Buffer.contents b)

(* --- Search ------------------------------------------------------------ *)

let check_invariants invariants st =
  let n = Array.length st.routers in
  let bad = ref None in
  for dst = 0 to n - 1 do
    if !bad = None then
      List.iter
        (fun inv ->
          if !bad = None && not (inv.holds st.routers ~dst) then
            bad := Some (inv.inv_name, dst))
        invariants
  done;
  !bad

let explore ?(invariants = standard_invariants) scenario =
  let init = initial_state scenario in
  match check_invariants invariants init with
  | Some (failed, at_dst) ->
    {
      scenario_name = scenario.name;
      states = 1;
      transitions = 0;
      max_depth = 0;
      complete = true;
      violation = Some { failed; at_dst; trace = [] };
    }
  | None ->
    let visited = Hashtbl.create 4096 in
    Hashtbl.replace visited (digest init) ();
    (* Frontier entries are reversed action traces; states are rebuilt
       by replay so memory stays proportional to the frontier's trace
       length, not to the number of live router states. *)
    let frontier = Queue.create () in
    Queue.add [] frontier;
    let states = ref 1 and transitions = ref 0 and max_depth = ref 0 in
    let violation = ref None in
    let complete = ref true in
    let replay rev_trace =
      let st = copy_state init in
      List.iter (apply st) (List.rev rev_trace);
      st
    in
    while (not (Queue.is_empty frontier)) && !violation = None && !states < scenario.max_states
    do
      let rev_trace = Queue.pop frontier in
      let st = replay rev_trace in
      fill_fingerprints st;
      let depth = List.length rev_trace in
      List.iter
        (fun action ->
          if !violation = None && !states < scenario.max_states then begin
            let st' = copy_state st in
            apply st' action;
            incr transitions;
            match check_invariants invariants st' with
            | Some (failed, at_dst) ->
              violation :=
                Some { failed; at_dst; trace = List.rev (action :: rev_trace) }
            | None ->
              let d = digest st' in
              if not (Hashtbl.mem visited d) then begin
                Hashtbl.replace visited d ();
                incr states;
                if depth + 1 > !max_depth then max_depth := depth + 1;
                Queue.add (action :: rev_trace) frontier
              end
          end)
        (enabled_actions st)
    done;
    if !states >= scenario.max_states || not (Queue.is_empty frontier) then
      complete := !violation <> None || Queue.is_empty frontier;
    {
      scenario_name = scenario.name;
      states = !states;
      transitions = !transitions;
      max_depth = !max_depth;
      complete = !complete;
      violation = !violation;
    }

(* --- Bundled scenarios ------------------------------------------------- *)

let unit_cost (_ : Graph.link) = 1.0

let mk_topo names duplexes =
  let g = Graph.create ~names:(Array.of_list names) in
  List.iter
    (fun (a, b) -> Graph.add_duplex g a b ~capacity:1.0e7 ~prop_delay:0.001)
    duplexes;
  g

let triangle () = mk_topo [ "a"; "b"; "c" ] [ ("a", "b"); ("b", "c"); ("a", "c") ]

let line3 () = mk_topo [ "a"; "b"; "c" ] [ ("a", "b"); ("b", "c") ]

let diamond () =
  mk_topo [ "s"; "u"; "v"; "t" ]
    [ ("s", "u"); ("s", "v"); ("u", "t"); ("v", "t") ]

let ring4 () =
  mk_topo [ "a"; "b"; "c"; "d" ] [ ("a", "b"); ("b", "c"); ("c", "d"); ("d", "a") ]

let ring5 () =
  mk_topo [ "a"; "b"; "c"; "d"; "e" ]
    [ ("a", "b"); ("b", "c"); ("c", "d"); ("d", "e"); ("e", "a") ]

(* Each scenario owns its topology and the search owns every router and
   channel it creates, so the sweep fans out on the pool; stats come
   back in scenario order regardless of job count. *)
let explore_all ?jobs ?invariants scenarios =
  Mdr_util.Pool.map_list ?jobs (fun sc -> explore ?invariants sc) scenarios

let bundled ?(max_states = 30_000) () =
  [
    {
      name = "triangle-3";
      topo = triangle ();
      cost = unit_cost;
      change = None;
      losses = 0;
      max_states;
    };
    {
      name = "line-3+cost-change";
      topo = line3 ();
      cost = unit_cost;
      change = Some (0, 1, 5.0);
      losses = 0;
      max_states;
    };
    {
      name = "triangle-3+cost-change+loss";
      topo = triangle ();
      cost = unit_cost;
      change = Some (0, 1, 4.0);
      losses = 1;
      max_states;
    };
    {
      name = "diamond-4";
      topo = diamond ();
      cost = unit_cost;
      change = None;
      losses = 0;
      max_states;
    };
    {
      name = "diamond-4+cost-change";
      topo = diamond ();
      cost = unit_cost;
      change = Some (0, 1, 3.0);
      losses = 0;
      max_states;
    };
    {
      name = "ring-4+loss";
      topo = ring4 ();
      cost = unit_cost;
      change = None;
      losses = 1;
      max_states;
    };
    {
      name = "ring-5";
      topo = ring5 ();
      cost = unit_cost;
      change = None;
      losses = 0;
      max_states;
    };
  ]

(* --- Rendering --------------------------------------------------------- *)

let describe_action topo = function
  | Deliver { src; dst } ->
    Printf.sprintf "deliver %s -> %s" (Graph.name topo src) (Graph.name topo dst)
  | Lose { src; dst } ->
    Printf.sprintf "LOSE    %s -> %s" (Graph.name topo src) (Graph.name topo dst)
  | Change_cost { src; dst; cost } ->
    Printf.sprintf "cost    %s -> %s := %g" (Graph.name topo src)
      (Graph.name topo dst) cost

let render_trace topo v =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "invariant [%s] violated for destination %s after %d step(s) (minimal \
        interleaving):\n"
       v.failed (Graph.name topo v.at_dst) (List.length v.trace));
  List.iteri
    (fun i a -> Buffer.add_string b (Printf.sprintf "  %2d. %s\n" (i + 1) (describe_action topo a)))
    v.trace;
  if v.trace = [] then Buffer.add_string b "  (violated in the initial state)\n";
  Buffer.contents b

let render_stats st =
  Printf.sprintf "%-28s %8d states %9d transitions  depth %3d  %s%s"
    st.scenario_name st.states st.transitions st.max_depth
    (if st.complete then "exhaustive" else "bounded")
    (match st.violation with
    | None -> "  ok"
    | Some v -> Printf.sprintf "  VIOLATION [%s]" v.failed)
