module Codec = Mdr_server.Codec

let magic = "MDRW"
let version = 2
let max_payload = 65536
let greeting = Codec.header ~magic ~version

let encode payload =
  let n = String.length payload in
  if n = 0 then invalid_arg "Frame.encode: empty payload";
  if n > max_payload then
    invalid_arg (Printf.sprintf "Frame.encode: payload of %d bytes exceeds %d" n max_payload);
  Codec.frame payload

type decoder = {
  mutable acc : string;  (* received, not yet decoded *)
  mutable greeted : bool;
  mutable failure : string option;  (* sticky *)
}

let decoder () = { acc = ""; greeted = false; failure = None }

let feed d chunk =
  if Option.is_none d.failure && String.length chunk > 0 then d.acc <- d.acc ^ chunk

let buffered d = String.length d.acc

let fail d reason =
  d.failure <- Some reason;
  d.acc <- "";
  `Corrupt reason

(* The payload after the 8-byte head at the start of [acc], once all
   [len] bytes of it have arrived. *)
let payload acc len = if String.length acc < 8 + len then None else Some (String.sub acc 8 len)

let rec next d =
  match d.failure with
  | Some reason -> `Corrupt reason
  | None ->
      if not d.greeted then
        if String.length d.acc < Codec.header_len then `Need_more
        else begin
          match Codec.check_header d.acc ~magic with
          | Error reason -> fail d reason
          | Ok v when v <> version ->
              fail d (Printf.sprintf "unsupported wire version %d" v)
          | Ok _ ->
              d.greeted <- true;
              d.acc <- String.sub d.acc Codec.header_len (String.length d.acc - Codec.header_len);
              next d
        end
      else if String.length d.acc < 8 then `Need_more
      else
        (* The declared length is capped before it drives any
           allocation or buffering decision. *)
        match Codec.unframe ~what:"frame" ~min_len:1 ~max_len:max_payload d.acc payload with
        | Codec.Record p ->
            let used = 8 + String.length p in
            d.acc <- String.sub d.acc used (String.length d.acc - used);
            `Frame p
        | Codec.Torn reason -> fail d reason
        | Codec.Eof -> `Need_more
