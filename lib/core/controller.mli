(** The MP routing scheme in the fluid model: the two-timescale
    controller of Sections 3-4.

    Each long-term round (one T_l period) measures the marginal link
    costs at the current operating point, recomputes distances and
    loop-free successor sets (what a converged MPDA yields — Theorem 4:
    S_j^i = {k | D_j^k < D_j^i}), and re-seeds with IH the fractions
    of the pairs whose successor set changed; the following [ts_per_tl] short-term steps (T_s periods)
    re-measure costs and locally adjust fractions with AH while the
    successor sets stay fixed, exactly as the paper prescribes.

    Which successors a scheme uses, how a new set is seeded and whether
    AH runs are decided by {!Heuristics.choose}, {!Heuristics.seed} and
    {!Heuristics.uses_ah}, the policy the packet simulator runs too.
    [Sp] restricts the successor set to the single best neighbor —
    the paper's stand-in for SPF routing — and is what Figures 11-14
    compare against. [Ecmp] allows multiple successors only when their
    paths have *equal* cost and splits evenly over them, which is
    exactly the multipath OSPF permits (paper Section 1); comparing it
    against [Mp] isolates the value of unequal-cost multipath. *)

type scheme = Heuristics.scheme = Mp | Sp | Ecmp

type config = {
  scheme : scheme;
  rounds : int;  (** long-term rounds (T_l periods) to simulate *)
  ts_per_tl : int;  (** AH steps per round; 1 means "T_s = T_l" *)
  damping : float;  (** AH damping, (0, 1] *)
}

val default_config : config
(** MP, 30 rounds, 5 short-term steps per round, full AH step. *)

type result = {
  params : Mdr_fluid.Params.t;
  flows : Mdr_fluid.Flows.t;
  total_cost : float;
  avg_delay : float;  (** network average, seconds/packet *)
  delay_history : float list;
      (** average delay after every short-term step, oldest first;
          shows convergence and (for SP) oscillation *)
}

val run :
  ?config:config ->
  Mdr_fluid.Evaluate.model ->
  Mdr_topology.Graph.t ->
  Mdr_fluid.Traffic.t ->
  result
