module Bin = Mdr_util.Bin
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

(* A u8 tag, the two node ids (u32) and, for the two costed kinds, the
   cost (f64). *)
let add b u =
  match u with
  | Set_cost { src; dst; cost } ->
      Bin.add_u8 b 0; Bin.add_u32 b src; Bin.add_u32 b dst; Bin.add_f64 b cost
  | Link_down { a; b = b' } -> Bin.add_u8 b 1; Bin.add_u32 b a; Bin.add_u32 b b'
  | Link_up { a; b = b'; cost } ->
      Bin.add_u8 b 2; Bin.add_u32 b a; Bin.add_u32 b b'; Bin.add_f64 b cost

let get r =
  let tag = Bin.get_u8 r in
  let a = Bin.get_u32 r in
  let b = Bin.get_u32 r in
  match tag with
  | 0 -> Set_cost { src = a; dst = b; cost = Bin.get_f64 r }
  | 1 -> Link_down { a; b }
  | 2 -> Link_up { a; b; cost = Bin.get_f64 r }
  | c -> Bin.malformed "unknown update tag %d" c

(* Exact length: trailing garbage is as much a framing error as a short
   payload. *)
let decoding s read = try Bin.decode s read with Bin.Malformed m -> raise (Corrupt m)
let encode u = Bin.encode 17 (fun b -> add b u)
let decode s = decoding s get

type entry =
  | Apply of { client : int; seq : int; epoch : int; update : t }
  | Claim of { client : int; epoch : int; pairs : (int * int) list }

let touched = function
  | Set_cost { src; dst; _ } -> (min src dst, max src dst)
  | Link_down { a; b } | Link_up { a; b; _ } -> (min a b, max a b)

let add_pair b (x, y) =
  Bin.add_u32 b x;
  Bin.add_u32 b y

let encode_entry e =
  Bin.encode 32 (fun b ->
      match e with
      | Apply { client; seq; epoch; update } ->
          Bin.add_u8 b 0x10; Bin.add_u32 b client; Bin.add_u64 b seq; Bin.add_u32 b epoch;
          add b update
      | Claim { client; epoch; pairs } ->
          Bin.add_u8 b 0x11; Bin.add_u32 b client; Bin.add_u32 b epoch;
          Bin.add_list b add_pair pairs)

let decode_entry s =
  decoding s (fun r ->
      let tag = Bin.get_u8 r in
      let client = Bin.get_u32 r in
      match tag with
      | 0x10 ->
          let seq = Bin.get_u64 r in
          let epoch = Bin.get_u32 r in
          Apply { client; seq; epoch; update = get r }
      | 0x11 ->
          let epoch = Bin.get_u32 r in
          let pair r = let x = Bin.get_u32 r in (x, Bin.get_u32 r) in
          Claim { client; epoch; pairs = Bin.get_list r pair }
      | c -> Bin.malformed "unknown entry tag %d" c)

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
