(** The paper's flow-allocation heuristics (Section 4.2, Figs. 6-7).

    Both take, for one (router, destination) pair, the successor set
    and the marginal distance through each successor
    [a_k = D_jk + l_ik] (neighbor distance plus adjacent link cost),
    and produce routing fractions satisfying Property 1.

    This module is also the one forwarding policy that the fluid
    controller ({!Controller}) and the packet simulator ([Sim]) share:
    which successors a scheme uses ({!choose}), how a newly chosen set
    is seeded ({!seed}), and under which scheme AH runs ({!uses_ah}).
    Each caller gathers its own candidates and marginal distances and
    re-seeds an entry only when the set {!choose} returns differs from
    the one in use.

    - {!initial} (IH) runs when the successor set (re)appears: traffic
      splits so that successors with larger marginal distance get
      proportionally less.
    - {!adjust} (AH) runs every short-term interval T_s: it moves
      traffic away from successors in proportion to how much their
      marginal distance exceeds the best successor's, and gives all of
      it to the best successor. The step empties the successor with
      the smallest fraction-to-excess ratio, so repeated application
      drives the distribution toward the perfect-load-balancing
      conditions (Eqs. 10-12) restricted to the successor set. *)

type scheme =
  | Mp  (** every loop-free successor, IH then AH: the paper's scheme *)
  | Sp  (** the single best successor: the paper's stand-in for SPF *)
  | Ecmp
      (** only the successors of equal marginal distance, split evenly
          and never adjusted: the multipath OSPF permits *)

val initial : (int * float) list -> (int * float) list
(** [initial [(k, a_k); ...]] is the IH distribution over the
    successors. All [a_k] must be finite and positive.
    @raise Invalid_argument on an empty successor set. *)

val adjust :
  ?damping:float ->
  current:(int * float) list ->
  through:(int -> float) ->
  unit ->
  (int * float) list
(** [adjust ~current ~through ()] applies one AH step to the current
    distribution [(successor, fraction)] using marginal distances
    [through k]. [damping] scales the paper's step (default 1.0, the
    full step). The best successor k0 is the one with the smallest
    a_k; a tie goes to the first of the tied successors in [current]'s
    order. The result lists k0 first, then the other successors in
    [current]'s order; fractions that fall to zero are dropped, and the
    result still sums to one. When nothing moves (a single successor,
    no finite a_k, or every a_k equal) the result is [current] itself.
    This is a list view of the same step {!adjust_row} runs in place.
    Successors must be distinct. *)

type workspace
(** Scratch for {!adjust_row}, sized for one table's largest router. *)

val workspace : Mdr_fluid.Params.t -> workspace

val adjust_row :
  damping:float ->
  workspace ->
  Mdr_fluid.Params.t ->
  node:int ->
  dst:int ->
  dist:float array ->
  costs:float array ->
  unit
(** [adjust_row ws params ~node ~dst ~dist ~costs] is one AH step on
    the live fractions of (node, dst), in place and without building a
    list: the successors are the neighbor slots with a positive
    fraction, in slot order, and a_k is [dist.(k) +. costs.(e)], [e]
    being the link slot of (node, k). It writes back through
    {!Mdr_fluid.Params.set_row} with k0 leading, which sums exactly as
    {!Mdr_fluid.Params.set_fractions} of {!adjust}'s result would; when
    nothing moves the row is written back as it stands, its first
    successor leading. A row with fewer than two successors is left
    alone. [damping] is {!adjust}'s. *)

val is_distribution : (int * float) list -> bool
(** Non-negative, non-empty, sums to 1 within 1e-6 — Property 1
    restricted to one entry. *)

val choose : scheme -> through:(int -> float) -> int list -> int list
(** [choose scheme ~through candidates] is the successors in use among
    [candidates], the loop-free successors in the caller's order, where
    [through k] is the marginal distance a_k. [Mp] keeps them all. [Sp]
    keeps the first candidate with the smallest finite a_k. [Ecmp] keeps,
    in order, those with [a_k <= best *. (1.0 +. 1e-9)], [best] being
    that smallest finite a_k. No candidate, or no finite a_k under [Sp]
    or [Ecmp], means no route: [[]]. *)

val seed : scheme -> through:(int -> float) -> int list -> (int * float) list
(** [seed scheme ~through chosen] is the distribution of a newly chosen
    set: none for [[]], all on a single successor, an even split under
    [Ecmp], and otherwise {!initial} (IH) over the successors whose a_k
    is finite and positive (none when no a_k is). *)

val uses_ah : scheme -> bool
(** Whether AH refines the distribution every T_s: under [Mp] only. *)
