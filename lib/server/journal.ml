let magic = "MDRJ"
let version = 3

(* The v3 header: magic, version, then the base seq as an i64. *)
let header_len = Codec.header_len + 8

type t = {
  fd : Unix.file_descr;
  fsync : bool;
  mutable count : int;
  mutable dead : bool;
}

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.single_write_substring fd s !off (len - !off)
  done

let create ?(fsync = false) ?(base = 0) ~path () =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let b = Buffer.create header_len in
  Buffer.add_string b (Codec.header ~magic ~version);
  Buffer.add_int64_be b (Int64.of_int base);
  write_all fd (Buffer.contents b);
  if fsync then Unix.fsync fd;
  Unix.close fd;
  Sys.rename tmp path;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  { fd; fsync; count = 0; dead = false }

let append ?torn_after t ~seq ~payload =
  if t.dead then invalid_arg "Journal.append: journal is closed";
  let b = Buffer.create (String.length payload + 8) in
  Buffer.add_int64_be b (Int64.of_int seq);
  Buffer.add_string b payload;
  let record = Codec.frame (Buffer.contents b) in
  match torn_after with
  | None ->
      write_all t.fd record;
      if t.fsync then Unix.fsync t.fd;
      t.count <- t.count + 1
  | Some k ->
      (* Simulated kill mid-append: a strict prefix of the record hits
         the disk, and the process that would have finished it is gone. *)
      let k = max 1 (min k (String.length record - 1)) in
      write_all t.fd (String.sub record 0 k);
      t.dead <- true;
      Unix.close t.fd

let records t = t.count

let close t =
  if not t.dead then begin
    t.dead <- true;
    Unix.close t.fd
  end

type replay = { base : int; entries : (int * string) list; torn : bool; clean_bytes : int }

let replay ~path =
  let ic =
    try open_in_bin path
    with Sys_error m -> failwith (Printf.sprintf "Journal.replay: %s" m)
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let truncated () = failwith (Printf.sprintf "Journal.replay: %s: truncated header" path) in
      let hdr = try really_input_string ic Codec.header_len with End_of_file -> truncated () in
      (match Codec.check_header hdr ~magic with
      | Ok v when v = version -> ()
      | Ok v -> failwith (Printf.sprintf "Journal.replay: %s: unsupported version %d" path v)
      | Error reason -> failwith (Printf.sprintf "Journal.replay: %s: %s" path reason));
      let base =
        try Int64.to_int (String.get_int64_be (really_input_string ic 8) 0)
        with End_of_file -> truncated ()
      in
      let rec loop acc clean =
        match Codec.read_record ic with
        | Codec.Eof -> { base; entries = List.rev acc; torn = false; clean_bytes = clean }
        | Codec.Torn reason ->
            Printf.eprintf "journal %s: skipping torn trailing record (%s)\n%!" path
              reason;
            { base; entries = List.rev acc; torn = true; clean_bytes = clean }
        | Codec.Record r ->
            if String.length r < 8 then
              failwith (Printf.sprintf "Journal.replay: %s: malformed record" path);
            let seq = Int64.to_int (String.get_int64_be r 0) in
            let payload = String.sub r 8 (String.length r - 8) in
            loop ((seq, payload) :: acc) (pos_in ic)
      in
      loop [] header_len)

let open_append ?(fsync = false) ~path () =
  let r = replay ~path in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  (* A torn tail must be cut before appending: writing a fresh record
     after partial bytes would turn a skippable tail into mid-file
     corruption. *)
  Unix.ftruncate fd r.clean_bytes;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  ({ fd; fsync; count = List.length r.entries; dead = false }, r)
