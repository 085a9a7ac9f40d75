module Graph = Mdr_topology.Graph

type t =
  | Set_cost of { src : int; dst : int; cost : float }
  | Link_down of { a : int; b : int }
  | Link_up of { a : int; b : int; cost : float }

exception Corrupt of string

let of_procfault = function
  | Mdr_faults.Procfault.Cost_change { src; dst; cost } -> Set_cost { src; dst; cost }
  | Mdr_faults.Procfault.Fail { a; b } -> Link_down { a; b }
  | Mdr_faults.Procfault.Restore { a; b; cost } -> Link_up { a; b; cost }

let encode u =
  let b = Buffer.create 17 in
  let node v = Buffer.add_int32_be b (Int32.of_int v) in
  let cost c = Buffer.add_int64_be b (Int64.bits_of_float c) in
  (match u with
  | Set_cost { src; dst; cost = c } ->
      Buffer.add_char b '\000';
      node src;
      node dst;
      cost c
  | Link_down { a; b = b' } ->
      Buffer.add_char b '\001';
      node a;
      node b'
  | Link_up { a; b = b'; cost = c } ->
      Buffer.add_char b '\002';
      node a;
      node b';
      cost c);
  Buffer.contents b

let decode s =
  (* Exact-length per tag: trailing garbage is as much a framing error
     as a short payload, and a flipped byte must never decode to a
     different-but-plausible update silently. *)
  let exactly n =
    if String.length s <> n then
      raise
        (Corrupt (Printf.sprintf "update payload is %d bytes (expected %d)" (String.length s) n))
  in
  if String.length s = 0 then raise (Corrupt "empty update payload");
  let node off = Int32.to_int (String.get_int32_be s off) in
  let cost off = Int64.float_of_bits (String.get_int64_be s off) in
  match s.[0] with
  | '\000' ->
      exactly 17;
      Set_cost { src = node 1; dst = node 5; cost = cost 9 }
  | '\001' ->
      exactly 9;
      Link_down { a = node 1; b = node 5 }
  | '\002' ->
      exactly 17;
      Link_up { a = node 1; b = node 5; cost = cost 9 }
  | c -> raise (Corrupt (Printf.sprintf "unknown update tag %d" (Char.code c)))

type entry =
  | Apply of { client : int; seq : int; epoch : int; update : t }
  | Claim of { client : int; epoch : int; pairs : (int * int) list }

let touched = function
  | Set_cost { src; dst; _ } -> (min src dst, max src dst)
  | Link_down { a; b } | Link_up { a; b; _ } -> (min a b, max a b)

let encode_entry e =
  let b = Buffer.create 32 in
  let u32 v = Buffer.add_int32_be b (Int32.of_int v) in
  (match e with
  | Apply { client; seq; epoch; update } ->
      Buffer.add_char b '\x10';
      u32 client;
      Buffer.add_int64_be b (Int64.of_int seq);
      u32 epoch;
      Buffer.add_string b (encode update)
  | Claim { client; epoch; pairs } ->
      Buffer.add_char b '\x11';
      u32 client;
      u32 epoch;
      u32 (List.length pairs);
      List.iter
        (fun (x, y) ->
          u32 x;
          u32 y)
        pairs);
  Buffer.contents b

let decode_entry s =
  let len = String.length s in
  if len = 0 then raise (Corrupt "empty entry payload");
  let u32 off = Int32.to_int (String.get_int32_be s off) in
  match s.[0] with
  | '\x10' ->
      if len < 18 then raise (Corrupt "short Apply entry");
      let client = u32 1 in
      let seq = Int64.to_int (String.get_int64_be s 5) in
      let epoch = u32 13 in
      let update = decode (String.sub s 17 (len - 17)) in
      Apply { client; seq; epoch; update }
  | '\x11' ->
      if len < 13 then raise (Corrupt "short Claim entry");
      let client = u32 1 in
      let epoch = u32 5 in
      let n = u32 9 in
      if n < 0 || len <> 13 + (8 * n) then
        raise
          (Corrupt
             (Printf.sprintf "Claim entry is %d bytes (expected %d pairs)" len n));
      let pairs = List.init n (fun i -> (u32 (13 + (8 * i)), u32 (17 + (8 * i)))) in
      Claim { client; epoch; pairs }
  | c -> raise (Corrupt (Printf.sprintf "unknown entry tag %d" (Char.code c)))

let check_cost what c =
  if not (Float.is_finite c) || c <= 0.0 then
    invalid_arg (Printf.sprintf "%s: cost must be finite and positive" what)

let check_link topo what ~src ~dst =
  if Graph.link topo ~src ~dst = None then
    invalid_arg (Printf.sprintf "%s: topology has no link %d -> %d" what src dst)

let validate topo = function
  | Set_cost { src; dst; cost } ->
      check_link topo "Update.Set_cost" ~src ~dst;
      check_cost "Update.Set_cost" cost
  | Link_down { a; b } ->
      check_link topo "Update.Link_down" ~src:a ~dst:b;
      check_link topo "Update.Link_down" ~src:b ~dst:a
  | Link_up { a; b; cost } ->
      check_link topo "Update.Link_up" ~src:a ~dst:b;
      check_link topo "Update.Link_up" ~src:b ~dst:a;
      check_cost "Update.Link_up" cost

let describe topo u =
  let n v = Graph.name topo v in
  match u with
  | Set_cost { src; dst; cost } -> Printf.sprintf "cost %s->%s %.4g" (n src) (n dst) cost
  | Link_down { a; b } -> Printf.sprintf "down %s--%s" (n a) (n b)
  | Link_up { a; b; cost } -> Printf.sprintf "up %s--%s %.4g" (n a) (n b) cost
