(** Composable control-channel fault models.

    A model decides the fate of every frame crossing a link: delivered
    (possibly late, possibly more than once) or lost. Layers compose
    left to right — [all [drop ~p:0.1; duplicate ~p:0.05; jitter
    ~max_delay:0.02]] first tosses a loss coin, then a duplication
    coin per surviving copy, then delays each copy independently —
    and every random choice is drawn from an explicit {!Mdr_util.Rng}
    stream, so fault sequences are reproducible from a seed.

    Models plug into the routing harness through {!to_channel} (see
    {!Mdr_routing.Harness.channel}); installing one
    engages the harness's reliable transport so the protocols above
    still see in-order, eventually-delivered messages. *)

type t

val ideal : t
(** Faultless: every frame delivered exactly once, on time. *)

val drop : ?until_:float -> p:float -> unit -> t
(** Lose each copy independently with probability [p] in [0, 1].
    [until_] bounds the impairment: from that simulated time on the
    layer is inert and frames pass through untouched. Default: the
    impairment is permanent. *)

val duplicate : ?until_:float -> p:float -> unit -> t
(** With probability [p], deliver an extra copy of each surviving
    frame (the copy gets its own jitter from later layers). [until_]
    as in {!drop}. *)

val jitter : ?until_:float -> max_delay:float -> unit -> t
(** Add an independent uniform extra delay in [0, max_delay] seconds
    to every delivered copy — out-of-order delivery once the spread
    exceeds the inter-frame spacing. [until_] as in {!drop}. *)

val blackout : from_:float -> until_:float -> t
(** Hard outage window: every frame transmitted at simulated time
    [from_ <= now < until_] is lost. Requires [from_ <= until_]. *)

val all : t list -> t

val decide : t -> rng:Mdr_util.Rng.t -> now:float -> float list
(** Fate of one frame transmitted at [now]: one extra delay per
    delivered copy ([[]] = lost). *)

val to_channel :
  t -> rng:Mdr_util.Rng.t -> src:int -> dst:int -> now:float -> float list
(** The same model on every link, ready for
    [Harness.Make.set_channel]. All links share [rng]; draws happen in
    deterministic event order. *)

val quiet_after : t -> float
(** Last instant the model's behavior changes: the latest blackout end
    or bounded-layer expiry (0 when there is neither) — campaigns wait
    at least this long before judging reconvergence. Permanent layers
    are stationary and do not move this horizon. *)

val describe : t -> string
(** Compact human-readable summary, e.g.
    ["drop 20% + dup 5% + jitter 20ms"]. *)
