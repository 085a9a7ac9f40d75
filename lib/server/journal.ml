module Bin = Mdr_util.Bin

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

let create ?(fsync = false) ?(base = 0) ~path () =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Codec.write_all fd
    (Bin.encode header_len (fun b ->
         Buffer.add_string b (Codec.header ~magic ~version);
         Bin.add_u64 b base));
  if fsync then Unix.fsync fd;
  Unix.close fd;
  Sys.rename tmp path;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  { fd; fsync; count = 0; dead = false }

let append ?torn_after t ~seq ~payload =
  if t.dead then invalid_arg "Journal.append: journal is closed";
  let record =
    Codec.frame
      (Bin.encode (String.length payload + 8) (fun b ->
           Bin.add_u64 b seq;
           Buffer.add_string b payload))
  in
  match torn_after with
  | None ->
      Codec.write_all t.fd record;
      if t.fsync then Unix.fsync t.fd;
      t.count <- t.count + 1
  | Some k ->
      (* Simulated kill mid-append: a strict prefix of the record hits
         the disk, and the process that would have finished it is gone. *)
      let k = max 1 (min k (String.length record - 1)) in
      Codec.write_all t.fd (String.sub record 0 k);
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
      let malformed what reason =
        failwith (Printf.sprintf "Journal.replay: %s: malformed %s (%s)" path what reason)
      in
      let base =
        match Bin.decode (really_input_string ic 8) Bin.get_u64 with
        | base -> base
        | exception End_of_file -> truncated ()
        | exception Bin.Malformed reason -> malformed "header" reason
      in
      let rec loop acc clean =
        match Codec.read_record ic with
        | Codec.Eof -> { base; entries = List.rev acc; torn = false; clean_bytes = clean }
        | Codec.Torn reason ->
            Printf.eprintf "journal %s: skipping torn trailing record (%s)\n%!" path
              reason;
            { base; entries = List.rev acc; torn = true; clean_bytes = clean }
        | Codec.Record r ->
            let entry =
              try
                let r = Bin.reader r in
                let seq = Bin.get_u64 r in
                (seq, Bin.get_rest r)
              with Bin.Malformed reason -> malformed "record" reason
            in
            loop (entry :: acc) (pos_in ic)
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
