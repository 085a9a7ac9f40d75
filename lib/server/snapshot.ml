let magic = "MDRS"
let version = 8

let write ?torn_after ~path payload =
  let whole = Codec.header ~magic ~version ^ Codec.frame payload in
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  match torn_after with
  | Some k ->
      (* Simulated kill: a strict prefix of the temp file, no rename. *)
      let k = max 0 (min k (String.length whole - 1)) in
      Codec.write_all fd (String.sub whole 0 k);
      Unix.close fd;
      `Torn
  | None ->
      Codec.write_all fd whole;
      Unix.fsync fd;
      Unix.close fd;
      Sys.rename tmp path;
      `Ok

let read ~path =
  if not (Sys.file_exists path) then `Missing
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match
          try Ok (really_input_string ic Codec.header_len)
          with End_of_file -> Error "truncated header"
        with
        | Error reason -> `Corrupt reason
        | Ok hdr -> (
            match Codec.check_header hdr ~magic with
            | Error reason -> `Corrupt reason
            | Ok v when v <> version ->
                `Corrupt (Printf.sprintf "unsupported version %d" v)
            | Ok _ -> (
                match Codec.read_record ic with
                | Codec.Eof -> `Corrupt "empty snapshot"
                | Codec.Torn reason -> `Corrupt reason
                | Codec.Record payload -> (
                    match Codec.read_record ic with
                    | Codec.Eof -> `Snapshot payload
                    | Codec.Record _ | Codec.Torn _ -> `Corrupt "trailing garbage"))))

let remove_stale_tmp ~path =
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then Sys.remove tmp
