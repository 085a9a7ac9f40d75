(* The wire protocol: framing against hostile bytes, the message
   codec, chaos transports, exactly-once resume across kills at every
   frame boundary, liveness reaping, and the end-to-end chaos audit. *)

module Codec = Mdr_server.Codec
module Update = Mdr_server.Update
module Server = Mdr_server.Server
module Transport = Mdr_wire.Transport
module Frame = Mdr_wire.Frame
module Proto = Mdr_wire.Proto
module Wire_server = Mdr_wire.Wire_server
module Client = Mdr_wire.Client
module Wire_audit = Mdr_wire.Wire_audit
module Wirefault = Mdr_faults.Wirefault
module Procfault = Mdr_faults.Procfault
module Graph = Mdr_topology.Graph
module Rng = Mdr_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Reuse the server suite's scratch-dir and topology fixtures. *)
let with_dir = Test_server.with_dir
let small_topo = Test_server.small_topo
let cost = Procfault.default_base_cost

let stream topo ~seed ~updates =
  Array.of_list (Test_server.stream topo ~seed ~updates)

(* ---- framing --------------------------------------------------------- *)

let drain_decoder dec =
  let rec go acc =
    match Frame.next dec with
    | `Frame p -> go (p :: acc)
    | `Need_more -> (List.rev acc, `Ok)
    | `Corrupt reason -> (List.rev acc, `Corrupt reason)
  in
  go []

let test_frame_roundtrip_chunked () =
  let payloads =
    List.init 40 (fun i -> String.init (1 + (i * 7 mod 300)) (fun j -> Char.chr ((i + j) land 0xFF)))
  in
  let blob =
    Frame.greeting ^ String.concat "" (List.map Frame.encode payloads)
  in
  let rng = Rng.create ~seed:11 in
  (* Feed in random-size chunks: frame boundaries never align. *)
  let dec = Frame.decoder () in
  let got = ref [] in
  let pos = ref 0 in
  while !pos < String.length blob do
    let k = min (String.length blob - !pos) (1 + Rng.int rng ~bound:13) in
    Frame.feed dec (String.sub blob !pos k);
    pos := !pos + k;
    let frames, status = drain_decoder dec in
    (match status with `Ok -> () | `Corrupt r -> Alcotest.fail r);
    got := !got @ frames
  done;
  check_int "all frames decoded" (List.length payloads) (List.length !got);
  List.iter2 (fun a b -> check_str "payload intact" a b) payloads !got

let test_frame_corruption_sticky () =
  let blob = Frame.greeting ^ Frame.encode "hello" ^ Frame.encode "world" in
  (* Flip every byte position in turn; the decoder must either reject
     the stream or (for flips past the surviving prefix) still decode
     the clean frames — and must never raise. *)
  for i = 0 to String.length blob - 1 do
    let b = Bytes.of_string blob in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
    let dec = Frame.decoder () in
    Frame.feed dec (Bytes.to_string b);
    let frames, status = drain_decoder dec in
    (match status with
    | `Corrupt _ ->
        (* sticky: more input must not revive it *)
        Frame.feed dec (Frame.encode "again");
        let more, status2 = drain_decoder dec in
        check "no frames after corruption" true (more = []);
        check "still corrupt" true (match status2 with `Corrupt _ -> true | `Ok -> false)
    | `Ok -> check "flip lost at most both frames" true (List.length frames <= 2));
    check "decoded frames are a prefix" true
      (List.for_all (fun p -> String.equal p "hello" || String.equal p "world") frames)
  done

let test_frame_length_cap () =
  (* A hostile length word must be rejected before any buffering
     decision, without waiting for the declared bytes. *)
  let dec = Frame.decoder () in
  Frame.feed dec Frame.greeting;
  let b = Buffer.create 8 in
  Buffer.add_int32_be b 0x3FFFFFFFl;
  Buffer.add_int32_be b 0l;
  Frame.feed dec (Buffer.contents b);
  (match Frame.next dec with
  | `Corrupt _ -> ()
  | `Frame _ | `Need_more -> Alcotest.fail "oversized length accepted");
  check_int "hostile bytes were not buffered" 0 (Frame.buffered dec);
  (* encode refuses to produce such a frame in the first place *)
  (match Frame.encode (String.make (Frame.max_payload + 1) 'x') with
  | _ -> Alcotest.fail "encode accepted oversized payload"
  | exception Invalid_argument _ -> ())

let test_codec_hostile_length_prefix () =
  (* The on-disk reader: a declared record length far beyond the bytes
     in the file must come back Torn immediately (no allocation of the
     declared size, no hang). *)
  with_dir (fun d ->
      let path = Filename.concat d "hostile.bin" in
      let oc = open_out_bin path in
      output_string oc (Codec.header ~magic:"MDRJ" ~version:1);
      let b = Buffer.create 12 in
      Buffer.add_int32_be b 0x20000000l;
      (* 512 MiB declared *)
      Buffer.add_int32_be b 0l;
      Buffer.add_string b "tiny";
      output_string oc (Buffer.contents b);
      close_out oc;
      let ic = open_in_bin path in
      seek_in ic Codec.header_len;
      (match Codec.read_record ic with
      | Codec.Torn _ -> ()
      | Codec.Record _ | Codec.Eof -> Alcotest.fail "hostile length not classified Torn");
      close_in ic)

(* ---- the message codec ----------------------------------------------- *)

let client_msgs =
  [
    Proto.Hello { client = 7; last_acked = 0 };
    Proto.Hello { client = 0x3FFFFFFF; last_acked = 123456789 };
    Proto.Claim { scope = Proto.All };
    Proto.Claim { scope = Proto.Pairs [ (0, 1) ] };
    Proto.Claim { scope = Proto.Pairs [ (0, 1); (2, 5); (3, 4) ] };
    Proto.Submit
      { seq = 1; epoch = 0; update = Update.Set_cost { src = 0; dst = 1; cost = 2.5 } };
    Proto.Submit { seq = 999; epoch = 3; update = Update.Link_down { a = 3; b = 4 } };
    Proto.Submit
      { seq = 1000; epoch = 77; update = Update.Link_up { a = 3; b = 4; cost = 1.25 } };
    Proto.Ping { nonce = 42 };
    Proto.Get_fingerprint;
    Proto.Bye;
  ]

let server_msgs =
  [
    Proto.Welcome { session = 1; client = 1; seq = 0; epoch = 0 };
    Proto.Welcome { session = 77; client = 9; seq = 50; epoch = 4 };
    Proto.Granted { epoch = 1 };
    Proto.Ack { client = 1; seq = 1 };
    Proto.Ack { client = 12; seq = 345678 };
    Proto.Reject { seq = 12; reason = "sequence gap (durable seq is 3)" };
    Proto.Reject { seq = 0; reason = "" };
    Proto.Fenced { seq = 4; held = 1; current = 2 };
    Proto.Throttled { seq = 9; retry_after = 0.25 };
    Proto.Busy { retry_after = 5.0; reason = "session table full" };
    Proto.Shutdown;
    Proto.Pong { nonce = 42 };
    Proto.Fingerprint (String.make 32 'a');
  ]

let test_proto_roundtrip () =
  List.iter
    (fun m ->
      check "client msg roundtrips" true (Proto.decode_client (Proto.encode_client m) = m))
    client_msgs;
  List.iter
    (fun m ->
      check "server msg roundtrips" true (Proto.decode_server (Proto.encode_server m) = m))
    server_msgs;
  (* trailing garbage is corruption, not tolerated slack *)
  List.iter
    (fun m ->
      match Proto.decode_client (Proto.encode_client m ^ "\000") with
      | _ -> Alcotest.fail "trailing byte accepted"
      | exception Proto.Corrupt _ -> ())
    client_msgs

(* One committed encoding per message, update and journal-entry kind,
   and the frame and journal-record framing around them: the bytes
   each format writes are pinned, and each decodes back to its value. *)
let hex s = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let golden_client =
  [
    (Proto.Hello { client = 0x3FFFFFFF; last_acked = 123456789 }, "013fffffff00000000075bcd15");
    (Proto.Claim { scope = Proto.All }, "0600");
    (Proto.Claim { scope = Proto.Pairs [ (0, 1); (2, 5) ] },
     "0601000200000000000000010000000200000005");
    ( Proto.Submit
        { seq = 1000; epoch = 77; update = Update.Link_up { a = 3; b = 4; cost = 1.25 } },
      "0200000000000003e80000004d0200000003000000043ff4000000000000" );
    (Proto.Ping { nonce = 42 }, "030000002a");
    (Proto.Get_fingerprint, "04");
    (Proto.Bye, "05");
  ]

let golden_server =
  [
    (Proto.Welcome { session = 77; client = 9; seq = 50; epoch = 4 },
     "410000004d00000009000000000000003200000004");
    (Proto.Granted { epoch = 1 }, "4600000001");
    (Proto.Ack { client = 12; seq = 345678 }, "420000000c000000000005464e");
    (Proto.Reject { seq = 12; reason = "gap" }, "43000000000000000c0003676170");
    (Proto.Fenced { seq = 4; held = 1; current = 2 }, "4700000000000000040000000100000002");
    (Proto.Throttled { seq = 9; retry_after = 0.25 }, "4800000000000000093fd0000000000000");
    (Proto.Busy { retry_after = 5.0; reason = "full" }, "494014000000000000000466756c6c");
    (Proto.Shutdown, "4a");
    (Proto.Pong { nonce = 0x3FFFFFFF }, "443fffffff");
    (Proto.Fingerprint "0123", "45000430313233");
  ]

let golden_updates =
  [
    (Update.Set_cost { src = 0; dst = 1; cost = 2.5 }, "0000000000000000014004000000000000");
    (Update.Link_down { a = 3; b = 4 }, "010000000300000004");
    (Update.Link_up { a = 3; b = 4; cost = 1.25 }, "0200000003000000043ff4000000000000");
  ]

let golden_entries =
  [
    ( Update.Apply
        { client = 2; seq = 70000; epoch = 3; update = Update.Set_cost { src = 0; dst = 1; cost = 2.5 } },
      "10000000020000000000011170000000030000000000000000014004000000000000" );
    (Update.Claim { client = 2; epoch = 3; pairs = [ (0, 1); (2, 5) ] },
     "1100000002000000030000000200000000000000010000000200000005");
  ]

let test_golden_encodings () =
  let golden name encode decode cases =
    List.iter
      (fun (v, h) ->
        check_str (name ^ " bytes") h (hex (encode v));
        check (name ^ " decodes back") true (decode (encode v) = v))
      cases
  in
  golden "client msg" Proto.encode_client Proto.decode_client golden_client;
  golden "server msg" Proto.encode_server Proto.decode_server golden_server;
  golden "update" Update.encode Update.decode golden_updates;
  golden "journal entry" Update.encode_entry Update.decode_entry golden_entries;
  check_str "greeting and one frame" "4d4452570000000200000001a2681b0205"
    (hex (Frame.greeting ^ Frame.encode "\x05"));
  with_dir (fun d ->
      let path = Filename.concat d "journal.bin" in
      let j = Mdr_server.Journal.create ~base:4 ~path () in
      Mdr_server.Journal.append j ~seq:5
        ~payload:
          (Update.encode_entry
             (Update.Apply { client = 0; seq = 5; epoch = 0; update = Update.Link_down { a = 3; b = 4 } }));
      Mdr_server.Journal.close j;
      check_str "journal header and one record"
        "4d44524a0000000300000000000000040000002237fb83b100000000000000051000000000000000000000000500000000010000000300000004"
        (hex (Test_server.read_file path)))

(* [s] with one bit flipped: byte [pos] (modulo the length), bit [bit]. *)
let flip_bit s pos bit =
  let b = Bytes.of_string s in
  let pos = pos mod Bytes.length b in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.to_string b

(* A decoder accepts exactly what its encoder writes: whatever it
   decodes re-encodes to the bytes it read. Any exception other than
   [corrupt]'s, the encoder's [Invalid_argument] included, escapes and
   fails the property. *)
let reencodes ~corrupt decode encode s =
  match decode s with
  | m -> String.equal (encode m) s
  | exception e when corrupt e -> true

let proto_fuzz =
  let valid =
    Array.of_list
      (List.map Proto.encode_client client_msgs @ List.map Proto.encode_server server_msgs)
  in
  let flipped =
    QCheck.Gen.(
      map
        (fun (i, pos, bit) -> flip_bit valid.(i) pos bit)
        (triple (int_bound (Array.length valid - 1)) (int_bound 63) (int_bound 7)))
  in
  QCheck.Test.make ~name:"proto decode: total on arbitrary bytes" ~count:1000
    (QCheck.make ~print:hex
       QCheck.Gen.(oneof [ string_size (int_bound 64); flipped ]))
    (fun s ->
      let corrupt = function Proto.Corrupt _ -> true | _ -> false in
      reencodes ~corrupt Proto.decode_client Proto.encode_client s
      && reencodes ~corrupt Proto.decode_server Proto.encode_server s)

let update_fuzz_random =
  QCheck.Test.make ~name:"update decode: total on arbitrary bytes" ~count:500
    QCheck.(string_of_size (Gen.int_bound 40))
    (fun s ->
      match Update.decode s with _ -> true | exception Update.Corrupt _ -> true)

let update_fuzz_bitflip =
  (* Single-bit-flipped valid update and journal-entry encodings: each
     decoder must return a value that re-encodes to the same bytes or
     raise the typed exception — never crash, loop or over-allocate.
     (Catching semantic flips is the CRC layer's job.) *)
  QCheck.Test.make ~name:"update decode: total on bit-flipped valid frames" ~count:500
    QCheck.(triple (int_bound 4) (int_bound 63) (int_bound 7))
    (fun (which, pos, bit) ->
      let set_cost = Update.Set_cost { src = 1; dst = 2; cost = 3.5 } in
      let enc =
        match which with
        | 0 -> Update.encode set_cost
        | 1 -> Update.encode (Update.Link_down { a = 1; b = 2 })
        | 2 -> Update.encode (Update.Link_up { a = 1; b = 2; cost = 0.5 })
        | 3 ->
          Update.encode_entry (Update.Apply { client = 1; seq = 9; epoch = 2; update = set_cost })
        | _ -> Update.encode_entry (Update.Claim { client = 1; epoch = 2; pairs = [ (1, 2) ] })
      in
      let s = flip_bit enc pos bit in
      let corrupt = function Update.Corrupt _ -> true | _ -> false in
      reencodes ~corrupt Update.decode Update.encode s
      && reencodes ~corrupt Update.decode_entry Update.encode_entry s)

let test_update_exact_length () =
  let enc = Update.encode (Update.Link_down { a = 1; b = 2 }) in
  (match Update.decode (enc ^ "x") with
  | _ -> Alcotest.fail "trailing byte accepted"
  | exception Update.Corrupt _ -> ());
  match Update.decode (String.sub enc 0 (String.length enc - 1)) with
  | _ -> Alcotest.fail "short payload accepted"
  | exception Update.Corrupt _ -> ()

(* ---- transports ------------------------------------------------------ *)

let test_pipe_ordering_and_close () =
  let a, b = Transport.pipe () in
  Transport.send a ~now:0.0 "one";
  a.Transport.send_at ~now:0.0 ~at:1.0 "late";
  Transport.send a ~now:0.5 "two";
  check "nothing before due" true (b.Transport.recv ~now:(-1.0) = None);
  check "in order" true (b.Transport.recv ~now:0.5 = Some "one");
  check "undelayed overtakes delayed" true (b.Transport.recv ~now:0.5 = Some "two");
  check "delayed arrives at its time" true (b.Transport.recv ~now:1.0 = Some "late");
  Transport.send b ~now:1.0 "reply";
  b.Transport.close ();
  check "close drops queues" true (a.Transport.recv ~now:2.0 = None);
  check "both ends closed" true
    (a.Transport.status () = `Closed && b.Transport.status () = `Closed)

let test_wirefault_deterministic_and_transparent () =
  let mk seed =
    Wirefault.create ~rng:(Rng.substream ~seed ~index:0)
      ~params:(Wirefault.scale Wirefault.default_params ~intensity:3.0) ()
  in
  let run line =
    List.concat_map (fun i -> Wirefault.transform line ~now:(float_of_int i) (String.make 20 'p'))
      (List.init 50 (fun i -> i))
  in
  check "same seed, same chaos" true (run (mk 5) = run (mk 5));
  check "different seed, different chaos" true (run (mk 5) <> run (mk 6));
  (* intensity 0 is a transparent line *)
  let clean =
    Wirefault.create ~rng:(Rng.create ~seed:1)
      ~params:(Wirefault.scale Wirefault.default_params ~intensity:0.0) ()
  in
  check "transparent" true (Wirefault.transform clean ~now:4.0 "abc" = [ (4.0, "abc") ]);
  (* a line that draws a disconnect goes dead and stays dead *)
  let all_cut = { Wirefault.default_params with disconnect = 0.95 } in
  let line = Wirefault.create ~rng:(Rng.create ~seed:2) ~params:all_cut () in
  let rec until_dead n = if Wirefault.dead line || n = 0 then n else begin
      ignore (Wirefault.transform line ~now:0.0 "xyz"); until_dead (n - 1) end
  in
  ignore (until_dead 100);
  check "line died" true (Wirefault.dead line);
  check "dead line delivers nothing" true (Wirefault.transform line ~now:9.0 "x" = [])

(* ---- a wired session, no chaos --------------------------------------- *)

let run_session ?(updates = 20) ?(seed = 3) ?(dt = 0.02) ?(max_steps = 50_000)
    ?(on_step = fun ~kill:_ _ -> ()) ~dial_chaos topo dir =
  let upd = stream topo ~seed ~updates in
  let config = { Server.default_config with snapshot_every = 8 } in
  let ref_srv = Server.create ~config ~dir:(Filename.concat dir "ref") ~topo ~cost () in
  Array.iteri (fun i u -> Server.apply ref_srv ~now:(float_of_int i) u) upd;
  let fp_ref = Server.fingerprint ref_srv in
  Server.close ref_srv;
  let srv = Server.create ~config ~dir:(Filename.concat dir "wire") ~topo ~cost () in
  let wsrv = Wire_server.create srv in
  let current = ref None in
  let conns = ref 0 in
  let dial ~now =
    incr conns;
    let client_end, server_end = Transport.pipe () in
    let client_end, server_end = dial_chaos ~conn:!conns client_end server_end in
    ignore (Wire_server.attach wsrv ~now server_end);
    current := Some client_end;
    Some client_end
  in
  let client = Client.create ~rng:(Rng.substream ~seed ~index:1) ~dial ~updates:upd () in
  let kill () =
    match !current with Some tr -> tr.Transport.close () | None -> ()
  in
  let steps = ref 0 in
  while (not (Client.finished client)) && !steps < max_steps do
    incr steps;
    let now = float_of_int !steps *. dt in
    Client.step client ~now;
    on_step ~kill (`Before_server (client, now));
    ignore (Wire_server.step wsrv ~now);
    on_step ~kill (`After_server (client, now));
    if !steps mod 25 = 0 then ignore (Wire_server.heartbeat wsrv ~now)
  done;
  (client, wsrv, srv, fp_ref)

let no_chaos ~conn:_ c s = (c, s)

let test_session_happy_path () =
  with_dir (fun dir ->
      let topo = small_topo () in
      let client, wsrv, srv, fp_ref = run_session ~dial_chaos:no_chaos topo dir in
      check "client done" true (Client.phase client = Client.Done);
      let cs = Client.stats client in
      let ws = Wire_server.stats wsrv in
      check_int "all acked" 20 cs.Client.acked;
      check_int "no retries on a clean wire" 0 cs.Client.retries;
      check_int "no reconnects" 0 cs.Client.reconnects;
      check_int "every update applied once" 20 ws.Wire_server.applied;
      check_int "server at seq" 20 (Server.seq srv);
      check_str "fingerprint matches direct run" fp_ref (Server.fingerprint srv);
      check "client fetched the same fingerprint" true
        (Client.fingerprint client = Some fp_ref);
      check "lfi clean" true (Server.lfi_ok srv);
      Server.close srv)

(* Satellite: the client killed at every frame boundary of a 50-update
   stream. Odd seqs are cut before the server ever sees the submit
   (the retry path); even seqs after the server applied it but before
   the ack returns (the fast-forward path). Either way the stream must
   converge to the reference fingerprint with no double apply. *)
let test_kill_every_frame_boundary () =
  with_dir (fun dir ->
      let topo = small_topo () in
      let killed = ref 0 in
      let kill_after = ref false in
      let on_step ~kill = function
        | `Before_server (client, _) -> (
            match Client.pending_seq client with
            | Some k when k > !killed && k <= 50 ->
                killed := k;
                if k mod 2 = 1 then kill () else kill_after := true
            | _ -> ())
        | `After_server (_, _) ->
            if !kill_after then begin
              kill_after := false;
              kill ()
            end
      in
      let client, wsrv, srv, fp_ref =
        run_session ~updates:50 ~seed:9 ~on_step ~dial_chaos:no_chaos topo dir
      in
      check_int "every boundary was cut" 50 !killed;
      check "client done" true (Client.phase client = Client.Done);
      let cs = Client.stats client in
      let ws = Wire_server.stats wsrv in
      check "reconnected across every cut" true (cs.Client.reconnects >= 50);
      check "fast-forward path exercised" true (cs.Client.fast_forwarded > 0);
      check_int "exactly-once: applied" 50 ws.Wire_server.applied;
      check_int "exactly-once: seq" 50 (Server.seq srv);
      check_str "converged to reference" fp_ref (Server.fingerprint srv);
      check "wire fingerprint agrees" true (Client.fingerprint client = Some fp_ref);
      check "lfi clean" true (Server.lfi_ok srv);
      Server.close srv)

(* ---- liveness and hostile peers -------------------------------------- *)

let test_dead_session_reaped () =
  with_dir (fun dir ->
      let topo = small_topo () in
      let srv = Server.create ~dir ~topo ~cost () in
      let wsrv =
        Wire_server.create
          ~config:{ Wire_server.default_config with dead_after = 5.0 }
          srv
      in
      let _, server_end = Transport.pipe () in
      let id = Option.get (Wire_server.attach wsrv ~now:0.0 server_end) in
      check_int "session open" 1 (Wire_server.sessions wsrv);
      check "quiet before the deadline" true (Wire_server.heartbeat wsrv ~now:4.0 = []);
      let alarms = Wire_server.heartbeat wsrv ~now:6.0 in
      check "reap alarm" true
        (List.exists
           (function Wire_server.Dead_session { id = i; _ } -> i = id | _ -> false)
           alarms);
      check_int "session gone" 0 (Wire_server.sessions wsrv);
      check_int "counted" 1 (Wire_server.stats wsrv).Wire_server.reaped;
      Server.close srv)

let test_malformed_stream_closes_session () =
  with_dir (fun dir ->
      let topo = small_topo () in
      let srv = Server.create ~dir ~topo ~cost () in
      let wsrv = Wire_server.create srv in
      let client_end, server_end = Transport.pipe () in
      ignore (Wire_server.attach wsrv ~now:0.0 server_end);
      Transport.send client_end ~now:0.0 "this is not a greeting";
      ignore (Wire_server.step wsrv ~now:0.1);
      check_int "session dropped" 0 (Wire_server.sessions wsrv);
      check_int "malformed counted" 1 (Wire_server.stats wsrv).Wire_server.malformed;
      let alarms = Wire_server.heartbeat wsrv ~now:0.2 in
      check "malformed alarm" true
        (List.exists
           (function Wire_server.Malformed_frames { frames = 1 } -> true | _ -> false)
           alarms);
      check "alarm fires once" true
        (not
           (List.exists
              (function Wire_server.Malformed_frames _ -> true | _ -> false)
              (Wire_server.heartbeat wsrv ~now:0.3)));
      Server.close srv)

(* A CRC-valid frame whose fields lie outside their codec range — a
   Ping with nonce 0xFFFFFFFF, a Hello with client 2^30 — is one
   malformed frame: the session drops and step returns normally,
   rather than raising while it encodes the reply. *)
let test_out_of_range_fields_are_malformed () =
  List.iter
    (fun payload ->
      with_dir (fun dir ->
          let srv = Server.create ~dir ~topo:(small_topo ()) ~cost () in
          let wsrv = Wire_server.create srv in
          let client_end, server_end = Transport.pipe () in
          ignore (Wire_server.attach wsrv ~now:0.0 server_end);
          Transport.send client_end ~now:0.0 (Frame.greeting ^ Frame.encode payload);
          ignore (Wire_server.step wsrv ~now:0.1);
          check_int "session dropped" 0 (Wire_server.sessions wsrv);
          check_int "malformed counted" 1 (Wire_server.stats wsrv).Wire_server.malformed;
          Server.close srv))
    [ "\x03\xff\xff\xff\xff"; "\x01\x40\x00\x00\x00" ^ String.make 8 '\x00' ]

let test_duplicate_submit_reacked_not_reapplied () =
  with_dir (fun dir ->
      let topo = small_topo () in
      let srv = Server.create ~dir ~topo ~cost () in
      let wsrv = Wire_server.create srv in
      let client_end, server_end = Transport.pipe () in
      ignore (Wire_server.attach wsrv ~now:0.0 server_end);
      let send msg =
        Transport.send client_end ~now:0.0 (Frame.encode (Proto.encode_client msg))
      in
      Transport.send client_end ~now:0.0 Frame.greeting;
      let u = Update.Set_cost { src = 0; dst = 1; cost = 9.0 } in
      send (Proto.Hello { client = 3; last_acked = 0 });
      send (Proto.Submit { seq = 1; epoch = 0; update = u });
      send (Proto.Submit { seq = 1; epoch = 0; update = u });
      send (Proto.Submit { seq = 5; epoch = 0; update = u });
      ignore (Wire_server.step wsrv ~now:0.1);
      let ws = Wire_server.stats wsrv in
      check_int "applied once" 1 ws.Wire_server.applied;
      check_int "duplicate re-acked" 1 ws.Wire_server.duplicates;
      check_int "gap rejected" 1 ws.Wire_server.rejects;
      check_int "server seq" 1 (Server.seq srv);
      check_int "client mark" 1 (Server.client_seq srv ~client:3);
      (* welcome, two acks for seq 1, one reject for seq 5 *)
      let dec = Frame.decoder () in
      let rec pull () =
        match client_end.Transport.recv ~now:0.2 with
        | Some c -> Frame.feed dec c; pull ()
        | None -> ()
      in
      pull ();
      let rec msgs acc =
        match Frame.next dec with
        | `Frame p -> msgs (Proto.decode_server p :: acc)
        | `Need_more -> List.rev acc
        | `Corrupt r -> Alcotest.fail r
      in
      (match msgs [] with
      | [
          Proto.Welcome { client = 3; seq = 0; epoch = 0; _ };
          Proto.Ack { client = 3; seq = 1 };
          Proto.Ack { client = 3; seq = 1 };
          Proto.Reject { seq = 5; _ };
        ] -> ()
      | other ->
          Alcotest.fail
            (Printf.sprintf "unexpected replies: %s"
               (String.concat ", " (List.map Proto.describe_server other))));
      Server.close srv)

let test_client_gives_up () =
  let topo = small_topo () in
  let upd = stream topo ~seed:3 ~updates:5 in
  let config = { Client.default_config with max_reconnects = 5 } in
  let client =
    Client.create ~config ~rng:(Rng.create ~seed:1) ~dial:(fun ~now:_ -> None)
      ~updates:upd ()
  in
  let steps = ref 0 in
  while (not (Client.finished client)) && !steps < 10_000 do
    incr steps;
    Client.step client ~now:(float_of_int !steps *. 0.05)
  done;
  check "failed, not hung" true
    (match Client.phase client with Client.Failed _ -> true | _ -> false);
  check_int "counted the refused dials" 6 (Client.stats client).Client.dial_failures

(* ---- admission control ----------------------------------------------- *)

(* A raw protocol endpoint: pipe in, greeting sent, with helpers to
   push client messages and drain decoded server replies. *)
let raw_endpoint wsrv ~now =
  let client_end, server_end = Transport.pipe () in
  let attached = Wire_server.attach wsrv ~now server_end in
  (match attached with
  | Some _ -> Transport.send client_end ~now Frame.greeting
  | None -> ());
  let dec = Frame.decoder () in
  let send ~now msg =
    Transport.send client_end ~now (Frame.encode (Proto.encode_client msg))
  in
  let recv ~now =
    let rec pull () =
      match client_end.Transport.recv ~now with
      | Some c -> Frame.feed dec c; pull ()
      | None -> ()
    in
    pull ();
    let rec msgs acc =
      match Frame.next dec with
      | `Frame p -> msgs (Proto.decode_server p :: acc)
      | `Need_more -> List.rev acc
      | `Corrupt r -> Alcotest.fail r
    in
    msgs []
  in
  (attached, send, recv)

let test_session_cap_lru_eviction () =
  with_dir (fun dir ->
      let topo = small_topo () in
      let srv = Server.create ~dir ~topo ~cost () in
      let wsrv =
        Wire_server.create
          ~config:{ Wire_server.default_config with max_sessions = 3 }
          srv
      in
      (* two parked Greeting-stage sessions, one Hello-bound *)
      let a1, _, _ = raw_endpoint wsrv ~now:0.0 in
      let a2, _, _ = raw_endpoint wsrv ~now:0.1 in
      let a3, send3, recv3 = raw_endpoint wsrv ~now:0.2 in
      check "table fills" true (a1 <> None && a2 <> None && a3 <> None);
      send3 ~now:0.3 (Proto.Hello { client = 1; last_acked = 0 });
      ignore (Wire_server.step wsrv ~now:0.3);
      check "bound" true
        (match recv3 ~now:0.3 with Proto.Welcome _ :: _ -> true | _ -> false);
      (* a fourth transport evicts the oldest idle Greeting session *)
      let a4, _, _ = raw_endpoint wsrv ~now:1.0 in
      check "redial storm victim is the parked session" true (a4 <> None);
      check_int "evicted one" 1 (Wire_server.stats wsrv).Wire_server.evicted;
      check_int "table still at cap" 3 (Wire_server.sessions wsrv);
      (* bind every slot, and the next transport is refused with Busy *)
      let bind (att, send, recv) ~now client =
        check "slot" true (att <> None);
        send ~now (Proto.Hello { client; last_acked = 0 });
        ignore (Wire_server.step wsrv ~now);
        check "welcomed" true
          (match recv ~now with Proto.Welcome _ :: _ -> true | _ -> false)
      in
      let e5 = raw_endpoint wsrv ~now:2.0 in
      let e6 = raw_endpoint wsrv ~now:2.1 in
      bind e5 ~now:2.2 2;
      bind e6 ~now:2.3 3;
      let a7, _, _ = raw_endpoint wsrv ~now:3.0 in
      check "full of bound sessions refuses" true (a7 = None);
      check_int "busy counted" 1 (Wire_server.stats wsrv).Wire_server.busy_rejected;
      (* e5 and e6 each displaced one of the remaining parked sessions
         before binding: every victim was Greeting-stage, never a
         bound client *)
      check_int "only parked sessions were evicted" 3
        (Wire_server.stats wsrv).Wire_server.evicted;
      check_int "bound sessions survived" 3 (Wire_server.sessions wsrv);
      Server.close srv)

let test_quarantine_after_strikes () =
  with_dir (fun dir ->
      let topo = small_topo () in
      let srv = Server.create ~dir ~topo ~cost () in
      let config =
        {
          Wire_server.default_config with
          max_strikes = 2;
          quarantine_for = 30.0;
        }
      in
      let wsrv = Wire_server.create ~config srv in
      let _, send, recv = raw_endpoint wsrv ~now:0.0 in
      send ~now:0.0 (Proto.Hello { client = 9; last_acked = 0 });
      let u = Update.Set_cost { src = 0; dst = 1; cost = 2.0 } in
      (* two gap submits = two strikes = quarantine *)
      send ~now:0.1 (Proto.Submit { seq = 5; epoch = 0; update = u });
      send ~now:0.2 (Proto.Submit { seq = 7; epoch = 0; update = u });
      ignore (Wire_server.step wsrv ~now:0.3);
      check_int "quarantined" 1 (Wire_server.stats wsrv).Wire_server.quarantines;
      check_int "its session was closed" 0 (Wire_server.sessions wsrv);
      ignore (recv ~now:0.3);
      let alarms = Wire_server.heartbeat wsrv ~now:0.4 in
      check "alarm raised" true
        (List.exists
           (function
             | Wire_server.Quarantined { client = 9; strikes = 2 } -> true
             | _ -> false)
           alarms);
      (* a quarantined client's Hello is refused (Busy, then the
         session closes; a pipe drops the queued frame with it, so
         assert via the counters rather than the reply) *)
      let _, send2, _ = raw_endpoint wsrv ~now:1.0 in
      send2 ~now:1.0 (Proto.Hello { client = 9; last_acked = 0 });
      ignore (Wire_server.step wsrv ~now:1.1);
      check_int "hello refused" 1
        (Wire_server.stats wsrv).Wire_server.busy_rejected;
      check_int "refused session closed" 0 (Wire_server.sessions wsrv);
      (* an innocent client is untouched *)
      let _, send3, recv3 = raw_endpoint wsrv ~now:2.0 in
      send3 ~now:2.0 (Proto.Hello { client = 4; last_acked = 0 });
      send3 ~now:2.1 (Proto.Submit { seq = 1; epoch = 0; update = u });
      ignore (Wire_server.step wsrv ~now:2.2);
      (match recv3 ~now:2.2 with
      | [ Proto.Welcome _; Proto.Ack { client = 4; seq = 1 } ] -> ()
      | other ->
          Alcotest.fail
            (Printf.sprintf "innocent client degraded: %s"
               (String.concat ", " (List.map Proto.describe_server other))));
      (* after the quarantine lapses the offender is allowed back *)
      let _, send4, recv4 = raw_endpoint wsrv ~now:40.0 in
      send4 ~now:40.0 (Proto.Hello { client = 9; last_acked = 0 });
      ignore (Wire_server.step wsrv ~now:40.1);
      check "back after quarantine" true
        (match recv4 ~now:40.1 with Proto.Welcome _ :: _ -> true | _ -> false);
      Server.close srv)

let test_token_bucket_throttles () =
  with_dir (fun dir ->
      let topo = small_topo () in
      let srv = Server.create ~dir ~topo ~cost () in
      let config =
        { Wire_server.default_config with rate = 1.0; burst = 2.0 }
      in
      let wsrv = Wire_server.create ~config srv in
      let _, send, recv = raw_endpoint wsrv ~now:0.0 in
      send ~now:0.0 (Proto.Hello { client = 5; last_acked = 0 });
      let u i = Update.Set_cost { src = 0; dst = 1; cost = float_of_int i } in
      (* burst of 3 at t=0: bucket holds 2, the third is shed *)
      send ~now:0.0 (Proto.Submit { seq = 1; epoch = 0; update = u 1 });
      send ~now:0.0 (Proto.Submit { seq = 2; epoch = 0; update = u 2 });
      send ~now:0.0 (Proto.Submit { seq = 3; epoch = 0; update = u 3 });
      ignore (Wire_server.step wsrv ~now:0.0);
      let ws = Wire_server.stats wsrv in
      check_int "two applied" 2 ws.Wire_server.applied;
      check_int "one throttled" 1 ws.Wire_server.throttled;
      check_int "shed counter per client" 1 (Wire_server.shed_of wsrv ~client:5);
      (match recv ~now:0.0 with
      | [
          Proto.Welcome _;
          Proto.Ack { client = 5; seq = 1 };
          Proto.Ack { client = 5; seq = 2 };
          Proto.Throttled { seq = 3; retry_after };
        ] ->
          check "retry hint positive" true (retry_after > 0.0)
      | other ->
          Alcotest.fail
            (Printf.sprintf "unexpected replies: %s"
               (String.concat ", " (List.map Proto.describe_server other))));
      (* shedding is not misbehavior: no strike, no quarantine *)
      check_int "no quarantine" 0 (Wire_server.stats wsrv).Wire_server.quarantines;
      (* after refill the retried submit goes through *)
      send ~now:2.5 (Proto.Submit { seq = 3; epoch = 0; update = u 3 });
      ignore (Wire_server.step wsrv ~now:2.5);
      check_int "applied after refill" 3 (Wire_server.stats wsrv).Wire_server.applied;
      check_int "durable mark" 3 (Server.client_seq srv ~client:5);
      Server.close srv)

(* ---- the chaos audit ------------------------------------------------- *)

let test_wire_audit_clean_wire () =
  with_dir (fun dir ->
      let topo = small_topo () in
      let r = Wire_audit.run ~updates:20 ~intensity:0.0 ~dir ~topo ~seed:4 () in
      check "clean wire passes" true r.Wire_audit.ok;
      check_int "no reconnects without chaos" 0 r.Wire_audit.reconnects;
      check_int "no retries without chaos" 0 r.Wire_audit.retries)

let test_wire_audit_chaos () =
  with_dir (fun dir ->
      let topo = small_topo () in
      let r = Wire_audit.run ~updates:40 ~intensity:2.0 ~dir ~topo ~seed:1 () in
      check "chaos run converges" true r.Wire_audit.ok;
      check "chaos actually struck" true
        (r.Wire_audit.chaos.Wirefault.flips
         + r.Wire_audit.chaos.Wirefault.truncations
         + r.Wire_audit.chaos.Wirefault.disconnects
         > 0);
      check "sessions were cut and resumed" true (r.Wire_audit.reconnects > 0))

let wire_audit_property =
  QCheck.Test.make ~name:"wire audit: exactly-once fingerprint equality under chaos"
    ~count:10
    QCheck.(make Gen.(int_range 1 10_000))
    (fun seed ->
      with_dir (fun dir ->
          let topo = small_topo () in
          let r = Wire_audit.run ~updates:25 ~intensity:1.5 ~dir ~topo ~seed () in
          r.Wire_audit.ok))

(* ---- the multi-writer audit ------------------------------------------ *)

let test_multi_audit_clean_wire () =
  with_dir (fun dir ->
      let topo = small_topo () in
      let r =
        Wire_audit.run_multi ~clients:3 ~updates:12 ~server_kills:0
          ~client_kills:0 ~intensity:0.0 ~dir ~topo ~seed:5 ()
      in
      check "clean multi run passes" true r.Wire_audit.ok;
      check_int "one grant per client" 3 r.Wire_audit.grants;
      check_int "no fencing on disjoint shares" 0 r.Wire_audit.fenced;
      check_int "three client reports" 3 (List.length r.Wire_audit.per_client);
      List.iter
        (fun (c : Wire_audit.client_report) ->
          check "client finished" true c.Wire_audit.client_done;
          check_int "all acked" 12 c.Wire_audit.acked)
        r.Wire_audit.per_client)

let test_multi_audit_chaos_with_kills () =
  with_dir (fun dir ->
      let topo = small_topo () in
      let r =
        Wire_audit.run_multi ~clients:4 ~updates:20 ~server_kills:3
          ~client_kills:2 ~intensity:1.5 ~dir ~topo ~seed:2 ()
      in
      check "chaos multi run passes" true r.Wire_audit.ok;
      check "fingerprint equals sequential reference" true r.Wire_audit.fingerprint_ok;
      check "every entry replayed through the fence" true r.Wire_audit.replay_ok;
      check "exactly-once per client" true r.Wire_audit.exactly_once;
      check "restores rebuilt marks byte-identically" true r.Wire_audit.marks_ok;
      check_int "all server kills landed" 3 r.Wire_audit.server_kills;
      check_int "all client kills landed" 2 r.Wire_audit.client_kills;
      check "chaos actually struck" true
        (r.Wire_audit.chaos.Wirefault.flips
         + r.Wire_audit.chaos.Wirefault.truncations
         + r.Wire_audit.chaos.Wirefault.disconnects
         > 0);
      check "report renders" true
        (String.length (Wire_audit.report_multi [ r ]) > 0))

(* Satellite: K clients' random streams interleaved with random
   server/client kills and resumes; per-client durable seqs and the
   fingerprint must match the sequential reference every time. *)
let multi_audit_property =
  QCheck.Test.make
    ~name:"multi audit: per-client exactly-once + fingerprint equality under kills"
    ~count:8
    QCheck.(
      triple
        (make Gen.(int_range 1 10_000))
        (make Gen.(int_range 2 4))
        (make Gen.(int_range 0 3)))
    (fun (seed, clients, server_kills) ->
      with_dir (fun dir ->
          let topo = small_topo () in
          let r =
            Wire_audit.run_multi ~clients ~updates:12 ~server_kills
              ~client_kills:(clients / 2) ~intensity:1.0 ~dir ~topo ~seed ()
          in
          r.Wire_audit.ok))

(* One chunk carrying k Ping frames decodes them in order, allocating
   (minor words plus words allocated directly in the major heap) about
   the same per frame at k = 4,000 as at k = 10: a decoder that copied
   the undecoded rest after every frame would allocate O(k) per frame.
   Minor words come from [Gc.minor_words], which counts exactly;
   [Gc.counters]' minor figure lags behind it on OCaml 5. *)
let test_frame_chunk_linear () =
  let words_per_frame k =
    let chunk =
      String.concat ""
        (List.init k (fun i -> Frame.encode (Proto.encode_client (Proto.Ping { nonce = i }))))
    in
    let dec = Frame.decoder () in
    Frame.feed dec Frame.greeting;
    let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
    Frame.feed dec chunk;
    let rec go i =
      match Frame.next dec with
      | `Frame p ->
          (match Proto.decode_client p with
          | Proto.Ping { nonce } when nonce = i -> ()
          | _ -> Alcotest.failf "frame %d of %d out of order" i k);
          go (i + 1)
      | `Need_more -> i
      | `Corrupt reason -> Alcotest.fail reason
    in
    let decoded = go 0 in
    let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
    check_int (Printf.sprintf "all %d frames decoded" k) k decoded;
    (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)) /. float_of_int k
  in
  let small = words_per_frame 10 and large = words_per_frame 4_000 in
  if large > 2.0 *. small then
    Alcotest.failf "%.0f words per frame at k = 4000 against %.0f at k = 10" large small

let suite =
  [
    Alcotest.test_case "frame roundtrip under random chunking" `Quick test_frame_roundtrip_chunked;
    Alcotest.test_case "frame corruption is detected and sticky" `Quick test_frame_corruption_sticky;
    Alcotest.test_case "frame length cap before buffering" `Quick test_frame_length_cap;
    Alcotest.test_case "codec: hostile length prefix reads as Torn" `Quick test_codec_hostile_length_prefix;
    Alcotest.test_case "proto roundtrip, exact length" `Quick test_proto_roundtrip;
    QCheck_alcotest.to_alcotest proto_fuzz;
    QCheck_alcotest.to_alcotest update_fuzz_random;
    QCheck_alcotest.to_alcotest update_fuzz_bitflip;
    Alcotest.test_case "update decode rejects trailing bytes" `Quick test_update_exact_length;
    Alcotest.test_case "pipe ordering, delay, close" `Quick test_pipe_ordering_and_close;
    Alcotest.test_case "wirefault determinism and intensity" `Quick test_wirefault_deterministic_and_transparent;
    Alcotest.test_case "session happy path" `Quick test_session_happy_path;
    Alcotest.test_case "kill at every frame boundary of 50 updates" `Quick test_kill_every_frame_boundary;
    Alcotest.test_case "golden bytes of every message, update and entry kind" `Quick
      test_golden_encodings;
    Alcotest.test_case "dead sessions are reaped" `Quick test_dead_session_reaped;
    Alcotest.test_case "malformed stream closes the session" `Quick test_malformed_stream_closes_session;
    Alcotest.test_case "out-of-range fields are one malformed frame" `Quick
      test_out_of_range_fields_are_malformed;
    Alcotest.test_case "duplicate submit re-acked, never re-applied" `Quick test_duplicate_submit_reacked_not_reapplied;
    Alcotest.test_case "client gives up after max reconnects" `Quick test_client_gives_up;
    Alcotest.test_case "admission: session cap with LRU eviction" `Quick
      test_session_cap_lru_eviction;
    Alcotest.test_case "admission: strikes quarantine a misbehaving client" `Quick
      test_quarantine_after_strikes;
    Alcotest.test_case "admission: token bucket throttles, no strike" `Quick
      test_token_bucket_throttles;
    Alcotest.test_case "wire audit: clean wire" `Quick test_wire_audit_clean_wire;
    Alcotest.test_case "wire audit: chaos converges" `Quick test_wire_audit_chaos;
    QCheck_alcotest.to_alcotest wire_audit_property;
    Alcotest.test_case "multi audit: clean wire, disjoint claims" `Quick
      test_multi_audit_clean_wire;
    Alcotest.test_case "multi audit: chaos with kills converges" `Quick
      test_multi_audit_chaos_with_kills;
    QCheck_alcotest.to_alcotest multi_audit_property;
    Alcotest.test_case "a chunk of k frames decodes in bytes linear in k" `Quick
      test_frame_chunk_linear;
  ]
