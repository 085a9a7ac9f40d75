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

(* Decoding advances [pos] through [acc]; only [feed] copies, and only
   the undecoded tail, so a chunk of k frames decodes in bytes linear
   in k. *)
type decoder = {
  mutable acc : string;  (* received; bytes from [pos] on not yet decoded *)
  mutable pos : int;
  mutable greeted : bool;
  mutable failure : string option;  (* sticky *)
}

let decoder () = { acc = ""; pos = 0; greeted = false; failure = None }

let buffered d = String.length d.acc - d.pos

let feed d chunk =
  if Option.is_none d.failure && String.length chunk > 0 then begin
    d.acc <- (if buffered d = 0 then chunk else String.sub d.acc d.pos (buffered d) ^ chunk);
    d.pos <- 0
  end

let fail d reason =
  d.failure <- Some reason;
  d.acc <- "";
  d.pos <- 0;
  `Corrupt reason

(* The [len]-byte payload at [off] in [acc], once all of it has arrived. *)
let payload acc off len =
  if String.length acc < off + len then None else Some (String.sub acc off len)

let rec next d =
  match d.failure with
  | Some reason -> `Corrupt reason
  | None ->
      if not d.greeted then
        (* nothing is decoded before the greeting, so it starts at [acc]'s
           first byte *)
        if buffered d < Codec.header_len then `Need_more
        else begin
          match Codec.check_header d.acc ~magic with
          | Error reason -> fail d reason
          | Ok v when v <> version ->
              fail d (Printf.sprintf "unsupported wire version %d" v)
          | Ok _ ->
              d.greeted <- true;
              d.pos <- Codec.header_len;
              next d
        end
      else if buffered d < 8 then `Need_more
      else
        (* The declared length is capped before it drives any
           allocation or buffering decision. *)
        match
          Codec.unframe ~pos:d.pos ~what:"frame" ~min_len:1 ~max_len:max_payload d.acc payload
        with
        | Codec.Record p ->
            d.pos <- d.pos + 8 + String.length p;
            `Frame p
        | Codec.Torn reason -> fail d reason
        | Codec.Eof -> `Need_more
