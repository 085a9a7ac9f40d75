module Cost_trigger = Mdr_routing.Cost_trigger

type stats = {
  offered : int;
  coalesced : int;
  absorbed : int;
  shed : int;
  released : int;
}

type slot =
  | Cost_slot of { src : int; dst : int; mutable cost : float }
  | Event of Update.t

type t = {
  capacity : int;
  degraded_hold : float;
  damping : Cost_trigger.params option;
  initial_cost : src:int -> dst:int -> float;
  q : slot Queue.t;
  cost_slots : (int * int, slot) Hashtbl.t;  (* directed link -> its queued slot *)
  triggers : (int * int, Cost_trigger.t) Hashtbl.t;
  mutable armed : (float * (int * int)) list;  (* (deadline, link), sorted *)
  mutable offered : int;
  mutable coalesced : int;
  mutable absorbed : int;
  mutable shed : int;
  mutable released : int;
  mutable last_shed : float;
}

let create ?damping ?(degraded_hold = 5.0) ~capacity ~initial_cost () =
  if capacity < 1 then invalid_arg "Ingest.create: capacity must be >= 1";
  if not (Float.is_finite degraded_hold) || degraded_hold < 0.0 then
    invalid_arg "Ingest.create: bad degraded_hold";
  Option.iter Cost_trigger.validate damping;
  {
    capacity;
    degraded_hold;
    damping;
    initial_cost;
    q = Queue.create ();
    cost_slots = Hashtbl.create 32;
    triggers = Hashtbl.create 32;
    armed = [];
    offered = 0;
    coalesced = 0;
    absorbed = 0;
    shed = 0;
    released = 0;
    last_shed = Float.neg_infinity;
  }

(* Deterministic timer order: by deadline, ties by link id. *)
let cmp_armed (d1, l1) (d2, l2) =
  let c = Float.compare d1 d2 in
  if c <> 0 then c else Stdlib.compare (l1 : int * int) l2

let arm t ~deadline link =
  t.armed <- List.sort cmp_armed ((deadline, link) :: t.armed)

let enqueue_cost t ~now ~src ~dst cost =
  match Hashtbl.find_opt t.cost_slots (src, dst) with
  | Some (Cost_slot s) -> begin
      s.cost <- cost;
      t.coalesced <- t.coalesced + 1
    end
  | Some (Event _) -> assert false (* only Cost_slots are indexed *)
  | None ->
      if Queue.length t.q >= t.capacity then begin
        t.shed <- t.shed + 1;
        t.last_shed <- now
      end
      else begin
        let s = Cost_slot { src; dst; cost } in
        Queue.push s t.q;
        Hashtbl.replace t.cost_slots (src, dst) s
      end

let trigger_for t ~now ~src ~dst =
  match Hashtbl.find_opt t.triggers (src, dst) with
  | Some trig -> trig
  | None ->
      let params = Option.get t.damping in
      let trig =
        Cost_trigger.create ~params ~initial:(t.initial_cost ~src ~dst) ~now ()
      in
      Hashtbl.replace t.triggers (src, dst) trig;
      trig

let run_actions t ~now ~src ~dst actions =
  match actions with
  | [] -> t.absorbed <- t.absorbed + 1
  | actions ->
      List.iter
        (function
          | Cost_trigger.Apply cost -> enqueue_cost t ~now ~src ~dst cost
          | Cost_trigger.Arm dt -> arm t ~deadline:(now +. dt) (src, dst))
        actions

let offer_cost t ~now ~src ~dst ~cost =
  match t.damping with
  | None -> enqueue_cost t ~now ~src ~dst cost
  | Some _ ->
      let trig = trigger_for t ~now ~src ~dst in
      run_actions t ~now ~src ~dst (Cost_trigger.offer trig ~now ~cost)

let offer t ~now (u : Update.t) =
  t.offered <- t.offered + 1;
  match u with
  | Update.Set_cost { src; dst; cost } -> offer_cost t ~now ~src ~dst ~cost
  | Update.Link_down _ | Update.Link_up _ ->
      (* Topology truth is never shed and never damped; a restoration
         re-announces costs out of band, so the dampers re-align. *)
      (match u with
      | Update.Link_up { a; b; cost } ->
          let sync src dst =
            match Hashtbl.find_opt t.triggers (src, dst) with
            | Some trig -> Cost_trigger.sync trig ~now ~cost
            | None -> ()
          in
          sync a b;
          sync b a
      | Update.Link_down _ | Update.Set_cost _ -> ());
      Queue.push (Event u) t.q

let fire_due t ~now =
  let due, rest = List.partition (fun (deadline, _) -> deadline <= now) t.armed in
  t.armed <- rest;
  List.iter
    (fun (_, (src, dst)) ->
      let trig = Hashtbl.find t.triggers (src, dst) in
      run_actions t ~now ~src ~dst (Cost_trigger.on_check trig ~now))
    due

let drain ?max t ~now =
  fire_due t ~now;
  let budget = match max with None -> Queue.length t.q | Some m -> m in
  let rec pop acc k =
    if k <= 0 || Queue.is_empty t.q then List.rev acc
    else
      match Queue.pop t.q with
      | Cost_slot s ->
          Hashtbl.remove t.cost_slots (s.src, s.dst);
          pop (Update.Set_cost { src = s.src; dst = s.dst; cost = s.cost } :: acc) (k - 1)
      | Event u -> pop (u :: acc) (k - 1)
  in
  let out = pop [] budget in
  t.released <- t.released + List.length out;
  out

let depth t = Queue.length t.q
let pending_timers t = List.length t.armed

let status t ~now =
  if Queue.length t.q >= t.capacity || now -. t.last_shed < t.degraded_hold then
    `Degraded
  else `Ok

let stats t =
  {
    offered = t.offered;
    coalesced = t.coalesced;
    absorbed = t.absorbed;
    shed = t.shed;
    released = t.released;
  }
