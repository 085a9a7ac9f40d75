type flow = { src : int; dst : int; rate : float }

(* [dests] caches [destinations], worked out on the first call: the
   matrix never changes once built. *)
type t = { n : int; r : float array array; dests : int list option Atomic.t }

let make n r = { n; r; dests = Atomic.make None }

let empty ~n = make n (Array.make_matrix n n 0.0)

let add t { src; dst; rate } =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Traffic: node out of range";
  if src = dst then invalid_arg "Traffic: self-flow";
  if rate < 0.0 then invalid_arg "Traffic: negative rate";
  t.r.(src).(dst) <- t.r.(src).(dst) +. rate

let of_flows ~n flows =
  let t = empty ~n in
  List.iter (add t) flows;
  t

let of_pairs_bits ~n ~packet_size ~rate_bits pairs =
  if packet_size <= 0.0 then invalid_arg "Traffic.of_pairs_bits: packet_size <= 0";
  let flows =
    List.mapi
      (fun i (src, dst) -> { src; dst; rate = rate_bits i /. packet_size })
      pairs
  in
  of_flows ~n flows

let node_count t = t.n

let rate t ~src ~dst = t.r.(src).(dst)

let rates t = t.r

let total_rate t =
  let acc = ref 0.0 in
  for src = 0 to Array.length t.r - 1 do
    let row = t.r.(src) in
    for dst = 0 to Array.length row - 1 do
      acc := !acc +. row.(dst)
    done
  done;
  !acc

let flows t =
  let acc = ref [] in
  for src = t.n - 1 downto 0 do
    for dst = t.n - 1 downto 0 do
      if t.r.(src).(dst) > 0.0 then
        acc := { src; dst; rate = t.r.(src).(dst) } :: !acc
    done
  done;
  !acc

let destinations t =
  match Atomic.get t.dests with
  | Some dests -> dests
  | None ->
    let routed dst = Array.exists (fun row -> row.(dst) > 0.0) t.r in
    let dests = List.filter routed (List.init t.n Fun.id) in
    (* A race only computes the same list twice. *)
    Atomic.set t.dests (Some dests);
    dests

let scale t k =
  if k < 0.0 then invalid_arg "Traffic.scale: negative factor";
  make t.n (Array.map (Array.map (fun x -> x *. k)) t.r)
