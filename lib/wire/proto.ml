module Bin = Mdr_util.Bin
module Update = Mdr_server.Update

exception Corrupt of string

type scope = All | Pairs of (int * int) list

type client_msg =
  | Hello of { client : int; last_acked : int }
  | Claim of { scope : scope }
  | Submit of { seq : int; epoch : int; update : Update.t }
  | Ping of { nonce : int }
  | Get_fingerprint
  | Bye

type server_msg =
  | Welcome of { session : int; client : int; seq : int; epoch : int }
  | Granted of { epoch : int }
  | Ack of { client : int; seq : int }
  | Reject of { seq : int; reason : string }
  | Fenced of { seq : int; held : int; current : int }
  | Throttled of { seq : int; retry_after : float }
  | Busy of { retry_after : float; reason : string }
  | Shutdown
  | Pong of { nonce : int }
  | Fingerprint of string

(* The rules a field's codec range does not cover. Both directions
   check them, so decoding accepts exactly the messages encoding
   writes. *)
let require ok what = if not ok then invalid_arg ("Proto: " ^ what)
let is_delay v = Float.is_finite v && v >= 0.0

let check_client = function
  | Hello { client; _ } -> require (client >= 1) "Hello.client ids start at 1"
  | Claim { scope = Pairs [] } -> require false "Claim with empty pair list"
  | Submit { seq; _ } -> require (seq >= 1) "Submit.seq out of range"
  | Claim _ | Ping _ | Get_fingerprint | Bye -> ()

let check_server = function
  | Granted { epoch } -> require (epoch >= 1) "Granted.epoch out of range"
  | Ack { seq; _ } | Fenced { seq; _ } -> require (seq >= 1) "seq out of range"
  | Throttled { seq; retry_after } ->
      require (seq >= 1) "Throttled.seq out of range";
      require (is_delay retry_after) "Throttled.retry_after must be finite and >= 0"
  | Busy { retry_after; _ } ->
      require (is_delay retry_after) "Busy.retry_after must be finite and >= 0"
  | Welcome _ | Reject _ | Shutdown | Pong _ | Fingerprint _ -> ()

let add_pair b (x, y) =
  Bin.add_u32 b x;
  Bin.add_u32 b y

let get_pair r =
  let x = Bin.get_u32 r in
  (x, Bin.get_u32 r)

(* Each message is its tag, then its fields in order. *)
let encode_client m =
  check_client m;
  Bin.encode 32 (fun b ->
      match m with
      | Hello { client; last_acked } ->
          Bin.add_u8 b 0x01; Bin.add_u32 b client; Bin.add_u64 b last_acked
      | Claim { scope = All } -> Bin.add_u8 b 0x06; Bin.add_u8 b 0
      | Claim { scope = Pairs l } ->
          Bin.add_u8 b 0x06; Bin.add_u8 b 1; Bin.add_list ~count:Bin.add_u16 b add_pair l
      | Submit { seq; epoch; update } ->
          Bin.add_u8 b 0x02; Bin.add_u64 b seq; Bin.add_u32 b epoch; Update.add b update
      | Ping { nonce } -> Bin.add_u8 b 0x03; Bin.add_u32 b nonce
      | Get_fingerprint -> Bin.add_u8 b 0x04
      | Bye -> Bin.add_u8 b 0x05)

let encode_server m =
  check_server m;
  Bin.encode 32 (fun b ->
      match m with
      | Welcome { session; client; seq; epoch } ->
          Bin.add_u8 b 0x41; Bin.add_u32 b session; Bin.add_u32 b client;
          Bin.add_u64 b seq; Bin.add_u32 b epoch
      | Granted { epoch } -> Bin.add_u8 b 0x46; Bin.add_u32 b epoch
      | Ack { client; seq } -> Bin.add_u8 b 0x42; Bin.add_u32 b client; Bin.add_u64 b seq
      | Reject { seq; reason } -> Bin.add_u8 b 0x43; Bin.add_u64 b seq; Bin.add_str b reason
      | Fenced { seq; held; current } ->
          Bin.add_u8 b 0x47; Bin.add_u64 b seq; Bin.add_u32 b held; Bin.add_u32 b current
      | Throttled { seq; retry_after } ->
          Bin.add_u8 b 0x48; Bin.add_u64 b seq; Bin.add_f64 b retry_after
      | Busy { retry_after; reason } ->
          Bin.add_u8 b 0x49; Bin.add_f64 b retry_after; Bin.add_str b reason
      | Shutdown -> Bin.add_u8 b 0x4A
      | Pong { nonce } -> Bin.add_u8 b 0x44; Bin.add_u32 b nonce
      | Fingerprint fp -> Bin.add_u8 b 0x45; Bin.add_str b fp)

(* Exact-length decoding: the frame layer hands us whole payloads, so
   any length disagreement is corruption, including trailing bytes.
   Fields are read in order, so each is let-bound before the next. *)
let decoding check s read =
  match Bin.decode s read with
  | m -> ( try check m; m with Invalid_argument reason -> raise (Corrupt reason))
  | exception Bin.Malformed reason -> raise (Corrupt reason)

let decode_client s =
  decoding check_client s (fun r ->
      match Bin.get_u8 r with
      | 0x01 ->
          let client = Bin.get_u32 r in
          Hello { client; last_acked = Bin.get_u64 r }
      | 0x06 -> (
          match Bin.get_u8 r with
          | 0 -> Claim { scope = All }
          | 1 -> Claim { scope = Pairs (Bin.get_list ~count:Bin.get_u16 r get_pair) }
          | c -> Bin.malformed "Claim: unknown scope kind 0x%02x" c)
      | 0x02 ->
          let seq = Bin.get_u64 r in
          let epoch = Bin.get_u32 r in
          Submit { seq; epoch; update = Update.get r }
      | 0x03 -> Ping { nonce = Bin.get_u32 r }
      | 0x04 -> Get_fingerprint
      | 0x05 -> Bye
      | c -> Bin.malformed "unknown client tag 0x%02x" c)

let decode_server s =
  decoding check_server s (fun r ->
      match Bin.get_u8 r with
      | 0x41 ->
          let session = Bin.get_u32 r in
          let client = Bin.get_u32 r in
          let seq = Bin.get_u64 r in
          Welcome { session; client; seq; epoch = Bin.get_u32 r }
      | 0x46 -> Granted { epoch = Bin.get_u32 r }
      | 0x42 ->
          let client = Bin.get_u32 r in
          Ack { client; seq = Bin.get_u64 r }
      | 0x43 ->
          let seq = Bin.get_u64 r in
          Reject { seq; reason = Bin.get_str r }
      | 0x47 ->
          let seq = Bin.get_u64 r in
          let held = Bin.get_u32 r in
          Fenced { seq; held; current = Bin.get_u32 r }
      | 0x48 ->
          let seq = Bin.get_u64 r in
          Throttled { seq; retry_after = Bin.get_f64 r }
      | 0x49 ->
          let retry_after = Bin.get_f64 r in
          Busy { retry_after; reason = Bin.get_str r }
      | 0x4A -> Shutdown
      | 0x44 -> Pong { nonce = Bin.get_u32 r }
      | 0x45 -> Fingerprint (Bin.get_str r)
      | c -> Bin.malformed "unknown server tag 0x%02x" c)

let describe_client = function
  | Hello { client; last_acked } ->
      Printf.sprintf "hello client=%d last_acked=%d" client last_acked
  | Claim { scope = All } -> "claim all"
  | Claim { scope = Pairs l } -> Printf.sprintf "claim %d pairs" (List.length l)
  | Submit { seq; epoch; _ } -> Printf.sprintf "submit seq=%d epoch=%d" seq epoch
  | Ping { nonce } -> Printf.sprintf "ping %d" nonce
  | Get_fingerprint -> "get-fingerprint"
  | Bye -> "bye"

let describe_server = function
  | Welcome { session; client; seq; epoch } ->
      Printf.sprintf "welcome session=%d client=%d seq=%d epoch=%d" session client
        seq epoch
  | Granted { epoch } -> Printf.sprintf "granted epoch=%d" epoch
  | Ack { client; seq } -> Printf.sprintf "ack client=%d seq=%d" client seq
  | Reject { seq; reason } -> Printf.sprintf "reject seq=%d (%s)" seq reason
  | Fenced { seq; held; current } ->
      Printf.sprintf "fenced seq=%d held=%d current=%d" seq held current
  | Throttled { seq; retry_after } ->
      Printf.sprintf "throttled seq=%d retry_after=%.3f" seq retry_after
  | Busy { retry_after; reason } ->
      Printf.sprintf "busy retry_after=%.3f (%s)" retry_after reason
  | Shutdown -> "shutdown"
  | Pong { nonce } -> Printf.sprintf "pong %d" nonce
  | Fingerprint fp -> Printf.sprintf "fingerprint %s" fp
