(* Length-prefixed, CRC-guarded record framing shared by the journal
   and snapshot files and the wire. *)

module Bin = Mdr_util.Bin

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.equal (Int32.logand !c 1l) 1l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.to_int (Int32.logxor !c 0xFFFFFFFFl) land 0xFFFF_FFFF

let header_len = 8

let header ~magic ~version =
  if String.length magic <> 4 then invalid_arg "Codec.header: magic must be 4 bytes";
  Bin.encode header_len (fun b ->
      Buffer.add_string b magic;
      Bin.add_u32 b version)

let check_header s ~magic =
  if String.length s < header_len then Error "short header"
  else if not (String.equal (String.sub s 0 4) magic) then
    Error (Printf.sprintf "bad magic %S (expected %S)" (String.sub s 0 4) magic)
  else
    match Bin.decode (String.sub s 4 4) Bin.get_u32 with
    | v -> Ok v
    | exception Bin.Malformed _ -> Error "version word out of range"

let frame payload =
  let b = Buffer.create (String.length payload + 8) in
  Bin.add_u32 b (String.length payload);
  Bin.add_word32 b (crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

type read = Record of string | Torn of string | Eof

let unframe ~pos ~what ~min_len ~max_len head payload =
  let r = Bin.reader ~pos head in
  let len = Bin.get_word32 r in
  let crc = Bin.get_word32 r in
  if len < min_len || len > max_len then
    Torn (Printf.sprintf "%s length %d outside [%d, %d]" what len min_len max_len)
  else
    match payload head (pos + 8) len with
    | None -> Eof
    | Some p when crc32 p = crc -> Record p
    | Some _ -> Torn (what ^ " checksum mismatch")

(* Records are bounded well below this in practice; an implausible
   length means we are reading garbage (e.g. a torn length word). *)
let max_record_len = Bin.max_u32

let really_read ic n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then Some (Bytes.unsafe_to_string b)
    else
      let k = input ic b off (n - off) in
      if k = 0 then None else go (off + k)
  in
  if n = 0 then Some "" else go 0

let read_record ic =
  let start = pos_in ic in
  match really_read ic 8 with
  | None -> if pos_in ic = start then Eof else Torn "short record header"
  | Some head -> (
      (* A hostile or torn length word must not drive Bytes.create: cap
         it both absolutely and by the bytes actually left in the file,
         so a flipped high bit costs a Torn, not a giant allocation. *)
      let remaining = in_channel_length ic - pos_in ic in
      match
        unframe ~pos:0 ~what:"record" ~min_len:0 ~max_len:(min max_record_len remaining) head
          (fun _ _ -> really_read ic)
      with
      | Eof -> Torn "short record payload"
      | read -> read)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.single_write_substring fd s !off (len - !off)
  done
