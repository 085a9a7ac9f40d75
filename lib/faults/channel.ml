module Rng = Mdr_util.Rng

(* Lossy layers optionally carry an expiry: [Some t] means the layer
   is inert from time [t] on (frames pass through untouched). [None]
   is a permanent impairment. *)
type layer =
  | Drop of float * float option
  | Duplicate of float * float option
  | Jitter of float * float option
  | Blackout of float * float

(* A model is the ordered list of layers a frame passes through. *)
type t = layer list

let ideal = []

let check_p fn p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Channel.%s: probability %g outside [0, 1]" fn p)

let check_until fn = function
  | Some u when u < 0.0 ->
    invalid_arg (Printf.sprintf "Channel.%s: negative until_" fn)
  | _ -> ()

let drop ?until_ ~p () =
  check_p "drop" p;
  check_until "drop" until_;
  [ Drop (p, until_) ]

let duplicate ?until_ ~p () =
  check_p "duplicate" p;
  check_until "duplicate" until_;
  [ Duplicate (p, until_) ]

let jitter ?until_ ~max_delay () =
  if max_delay < 0.0 then invalid_arg "Channel.jitter: negative max_delay";
  check_until "jitter" until_;
  [ Jitter (max_delay, until_) ]

let blackout ~from_ ~until_ =
  if not (from_ <= until_) then invalid_arg "Channel.blackout: from_ > until_";
  [ Blackout (from_, until_) ]

let all models = List.concat models

let active until_ now =
  match until_ with None -> true | Some u -> now < u

(* Each layer maps the list of (extra-delay) copies to a new list.
   Draws happen copy by copy in list order, so the consumed random
   stream is a deterministic function of the traffic. Expired layers
   draw nothing, keeping the stream a function of the *active*
   impairments only. *)
let apply_layer ~rng ~now copies = function
  | Drop (p, until_) ->
    if active until_ now then List.filter (fun _ -> Rng.float rng >= p) copies
    else copies
  | Duplicate (p, until_) ->
    if active until_ now then
      List.concat_map
        (fun d -> if Rng.float rng < p then [ d; d ] else [ d ])
        copies
    else copies
  | Jitter (max_delay, until_) ->
    if active until_ now then
      List.map (fun d -> d +. Rng.uniform rng ~lo:0.0 ~hi:max_delay) copies
    else copies
  | Blackout (from_, until_) ->
    if now >= from_ && now < until_ then [] else copies

let decide t ~rng ~now =
  List.fold_left (apply_layer ~rng ~now) [ 0.0 ] t

let to_channel t ~rng ~src:_ ~dst:_ ~now = decide t ~rng ~now

(* Last instant the channel's behavior changes: a blackout's end or a
   bounded layer's expiry. Permanent layers are stationary — they
   never change again, so they do not move the horizon. *)
let quiet_after t =
  List.fold_left
    (fun acc -> function
      | Blackout (_, until_) -> Float.max acc until_
      | Drop (_, Some u) | Duplicate (_, Some u) | Jitter (_, Some u) ->
        Float.max acc u
      | Drop (_, None) | Duplicate (_, None) | Jitter (_, None) -> acc)
    0.0 t

let describe = function
  | [] -> "ideal"
  | layers ->
    let bound = function
      | None -> ""
      | Some u -> Printf.sprintf " (until %.0fs)" u
    in
    String.concat " + "
      (List.map
         (function
           | Drop (p, u) -> Printf.sprintf "drop %.0f%%%s" (100.0 *. p) (bound u)
           | Duplicate (p, u) -> Printf.sprintf "dup %.0f%%%s" (100.0 *. p) (bound u)
           | Jitter (d, u) -> Printf.sprintf "jitter %.0fms%s" (1000.0 *. d) (bound u)
           | Blackout (a, b) -> Printf.sprintf "blackout [%.1f, %.1f)s" a b)
         layers)
