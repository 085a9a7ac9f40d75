module Rng = Mdr_util.Rng
module Graph = Mdr_topology.Graph

type update =
  | Cost_change of { src : int; dst : int; cost : float }
  | Fail of { a : int; b : int }
  | Restore of { a : int; b : int; cost : float }

type where = Between | Mid_journal | Mid_snapshot
type kill = { after : int; where : where; torn_at : int }

let default_base_cost (l : Graph.link) = 1.0 +. (1000.0 *. l.prop_delay)

let partition_pairs ~clients topo =
  if clients < 1 then invalid_arg "Procfault.partition_pairs: clients must be >= 1";
  let pairs = Graph.duplex_pairs topo in
  if List.length pairs < clients then
    invalid_arg
      (Printf.sprintf
         "Procfault.partition_pairs: %d clients but only %d duplex pairs"
         clients (List.length pairs));
  let buckets = Array.make clients [] in
  List.iteri (fun i p -> buckets.(i mod clients) <- p :: buckets.(i mod clients)) pairs;
  Array.to_list (Array.map List.rev buckets)

let stream_gen ~rng ~base_cost ~topo ~updates ~topology_events ?only_pairs () =
  if updates < 0 then invalid_arg "Procfault.stream: negative update count";
  let all = Graph.duplex_pairs topo in
  let chosen =
    match only_pairs with
    | None -> all
    | Some subset ->
        List.iter
          (fun (a, b) ->
            if a >= b then
              invalid_arg "Procfault.stream: pairs must be normalized (a < b)";
            if not (List.mem (a, b) all) then
              invalid_arg
                (Printf.sprintf "Procfault.stream: (%d, %d) is not a duplex pair" a b))
          subset;
        subset
  in
  let pairs = Array.of_list chosen in
  let n_pairs = Array.length pairs in
  if n_pairs = 0 then invalid_arg "Procfault.stream: topology has no duplex link";
  let up = Array.make n_pairs true in
  let n_up = ref n_pairs in
  let base ~src ~dst = base_cost (Graph.link_exn topo ~src ~dst) in
  (* index of the [k]-th up pair *)
  let nth_up k =
    let seen = ref (-1) in
    let found = ref (-1) in
    Array.iteri
      (fun i u ->
        if u then begin
          incr seen;
          if !seen = k && !found < 0 then found := i
        end)
      up;
    !found
  in
  let cost_change () =
    let i = nth_up (Rng.int rng ~bound:!n_up) in
    let a, b = pairs.(i) in
    let src, dst = if Rng.int rng ~bound:2 = 0 then (a, b) else (b, a) in
    let factor = Float.exp (Rng.uniform rng ~lo:(-1.4) ~hi:1.4) in
    Cost_change { src; dst; cost = base ~src ~dst *. factor }
  in
  let fail () =
    if !n_up <= 1 then cost_change () (* never take the last link *)
    else begin
      let i = nth_up (Rng.int rng ~bound:!n_up) in
      up.(i) <- false;
      decr n_up;
      let a, b = pairs.(i) in
      Fail { a; b }
    end
  in
  let restore () =
    if !n_up = n_pairs then cost_change () (* nothing is down *)
    else begin
      let k = ref (Rng.int rng ~bound:(n_pairs - !n_up)) in
      let found = ref (-1) in
      Array.iteri
        (fun i u ->
          if (not u) && !found < 0 then
            if !k = 0 then found := i else decr k)
        up;
      let i = !found in
      up.(i) <- true;
      incr n_up;
      let a, b = pairs.(i) in
      Restore { a; b; cost = base ~src:a ~dst:b }
    end
  in
  let out = ref [] in
  for _ = 1 to updates do
    let u =
      if not topology_events then cost_change ()
      else
        let r = Rng.float rng in
        if r < 0.70 then cost_change ()
        else if r < 0.85 then fail ()
        else restore ()
    in
    out := u :: !out
  done;
  List.rev !out

let stream ~rng ?(base_cost = default_base_cost) ~topo ~updates () =
  stream_gen ~rng ~base_cost ~topo ~updates ~topology_events:true ()

let stream_on ~rng ?(base_cost = default_base_cost) ~topo ~pairs ~updates () =
  stream_gen ~rng ~base_cost ~topo ~updates ~topology_events:true ~only_pairs:pairs ()

let cost_storm ~rng ?(base_cost = default_base_cost) ~topo ~updates () =
  stream_gen ~rng ~base_cost ~topo ~updates ~topology_events:false ()

let random_kills ~rng ~updates ~kills =
  if kills < 0 then invalid_arg "Procfault.random_kills: negative kill count";
  if updates < kills + 2 then
    invalid_arg "Procfault.random_kills: need updates >= kills + 2";
  (* distinct update numbers in [2, updates - 1] *)
  let candidates = Array.init (updates - 2) (fun i -> i + 2) in
  Rng.shuffle rng candidates;
  let chosen = Array.sub candidates 0 kills in
  Array.sort (fun (a : int) b -> Stdlib.compare a b) chosen;
  let out = ref [] in
  for i = 0 to kills - 1 do
    let where =
      match i mod 3 with 0 -> Mid_snapshot | 1 -> Between | _ -> Mid_journal
    in
    out := { after = chosen.(i); where; torn_at = 1 + Rng.int rng ~bound:4096 } :: !out
  done;
  List.rev !out

let describe topo u =
  let name = Graph.name topo in
  match u with
  | Cost_change { src; dst; cost } ->
      Printf.sprintf "cost %s->%s = %.3f" (name src) (name dst) cost
  | Fail { a; b } -> Printf.sprintf "fail %s<->%s" (name a) (name b)
  | Restore { a; b; cost } ->
      Printf.sprintf "restore %s<->%s at %.3f" (name a) (name b) cost
