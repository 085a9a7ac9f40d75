exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let max_u32 = 0x3FFF_FFFF

let out_of_range kind v = invalid_arg (Printf.sprintf "Bin.add_%s: %d out of range" kind v)

let encode size write =
  let b = Buffer.create size in
  write b;
  Buffer.contents b

let add_u8 b v =
  if v < 0 || v > 0xFF then out_of_range "u8" v;
  Buffer.add_uint8 b v

let add_u16 b v =
  if v < 0 || v > 0xFFFF then out_of_range "u16" v;
  Buffer.add_uint16_be b v

let add_u32 b v =
  if v < 0 || v > max_u32 then out_of_range "u32" v;
  Buffer.add_int32_be b (Int32.of_int v)

let add_u64 b v =
  if v < 0 then out_of_range "u64" v;
  Buffer.add_int64_be b (Int64.of_int v)

let add_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let add_word32 b w =
  if w < 0 || w > 0xFFFF_FFFF then out_of_range "word32" w;
  Buffer.add_int32_be b (Int32.of_int w)

let add_str b s =
  add_u16 b (String.length s);
  Buffer.add_string b s

let add_list ?(count = add_u32) b add l =
  count b (List.length l);
  List.iter (add b) l

type reader = { s : string; mutable pos : int }

let reader ?(pos = 0) s = { s; pos }

(* The offset of the next [n] bytes, which are then consumed. *)
let take r n =
  let p = r.pos in
  if n < 0 || n > String.length r.s - p then malformed "truncated at byte %d" p;
  r.pos <- p + n;
  p

let get_u8 r = Char.code (String.unsafe_get r.s (take r 1))
let get_u16 r = String.get_uint16_be r.s (take r 2)

let get_u32 r =
  let p = take r 4 in
  let v = Int32.to_int (String.get_int32_be r.s p) in
  if v < 0 || v > max_u32 then malformed "u32 at byte %d out of range" p;
  v

let max_u64 = Int64.of_int max_int

let get_u64 r =
  let p = take r 8 in
  let v = String.get_int64_be r.s p in
  if v < 0L || v > max_u64 then malformed "u64 at byte %d out of range" p;
  Int64.to_int v

let get_f64 r = Int64.float_of_bits (String.get_int64_be r.s (take r 8))
let get_word32 r = Int32.to_int (String.get_int32_be r.s (take r 4)) land 0xFFFF_FFFF
let get_bytes r n = String.sub r.s (take r n) n
let get_str r = get_bytes r (get_u16 r)
let get_rest r = get_bytes r (String.length r.s - r.pos)

let get_list ?(count = get_u32) r get =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (get r :: acc) in
  go (count r) []

let finish r =
  let left = String.length r.s - r.pos in
  if left <> 0 then malformed "%d trailing bytes" left

let decode s read =
  let r = reader s in
  let v = read r in
  finish r;
  v
