(** The candidate-selection engine: branch-and-bound over CoreCover's
    rewritings with shared subplan memoization and optional parallel
    scoring.

    The naive consumer of CoreCover{^ *} costs every candidate in full
    and keeps the cheapest.  This engine prunes and shares instead:

    - candidates are {e ranked} by the statistics-only {!Estimate} cost
      of their bodies, so a likely-cheap plan is costed first and seeds
      a strong incumbent;
    - every subsequent candidate is scored against
      [bound = incumbent + 1]: its M2/M3 search returns [None] without
      materializing joins as soon as it provably cannot {e strictly
      beat} the incumbent — candidates {e tying} the global minimum are
      always evaluated in full, which is what makes the parallel result
      deterministic;
    - with [domains > 1] the scoring fans out over a {!Vplan_parallel}
      pool, the incumbent living in an [Atomic] that every worker
      CAS-mins after each accepted candidate;
    - a shared {!Subplan} memo deduplicates join evaluation across
      candidates (and across requests, when the memo is owned by a
      resident service catalog), including the cost of each acyclic
      candidate's join-tree seed order.

    The ranking catalog is {!Estimate.analyze} of the database, a scan
    of every relation.  A caller that plans repeatedly against one
    database passes {!best_m2} a [rank_estimate] to build it once; it
    is only called when there are at least two candidates to rank.

    Determinism contract: for any [domains], the returned choice is the
    minimum over candidates of (cost, original candidate position) —
    exactly the candidate the sequential unpruned fold would keep
    (earliest on cost ties), with the identical order/plan, because the
    DP's accepted results are independent of how tight the bound was.

    A [budget] cancels the whole fan-out; {!Vplan_core.Budget} errors
    propagate as usual. *)

open Vplan_cq
open Vplan_relational
open Vplan_views

type m2_choice = {
  m2_rewriting : Query.t;  (** chosen rewriting, filters appended if any *)
  m2_order : Atom.t list;  (** optimal join order *)
  m2_cost : int;
}

type m3_choice = {
  m3_rewriting : Query.t;
  m3_plan : M3.plan;
  m3_cost : int;
}

(** [best_m2 db candidates] — the M2-cheapest candidate, or [None] when
    [candidates] is empty.  With [filters] each candidate is improved by
    {!Filter.improve} (exact, memo-shared); candidates whose bare-body
    relation cells already reach the incumbent are skipped without
    evaluating any join — sound because filters only add relation
    cells.  Without filters the per-candidate search is
    {!M2.optimal_pruned} under the incumbent bound. *)
val best_m2 :
  ?memo:Subplan.t ->
  ?rank_estimate:(unit -> Estimate.t) ->
  ?budget:Vplan_core.Budget.t ->
  ?domains:int ->
  ?filters:View_tuple.t list ->
  Database.t ->
  Query.t list ->
  m2_choice option

type m2_est_choice = {
  est_rewriting : Query.t;  (** chosen rewriting *)
  est_order : Atom.t list;  (** estimated-optimal join order *)
  est_cost : float;  (** estimated M2 cells *)
}

type m3_est_choice = {
  est3_rewriting : Query.t;
  est3_plan : M3.plan;
  est3_cost : float;
}

(** [best_m2_estimated est candidates] — the candidate with the cheapest
    {!M2.optimal_estimated} cost, computed from statistics alone (no
    view is ever materialized).  Deterministic: the first candidate
    achieving the minimum estimated cost wins.  [budget] is ticked per
    candidate and per DP state. *)
val best_m2_estimated :
  ?budget:Vplan_core.Budget.t ->
  Estimate.t ->
  Query.t list ->
  m2_est_choice option

(** [best_m3_estimated ~annotate est candidates] — estimated-mode M3
    selection over annotated plans. *)
val best_m3_estimated :
  ?budget:Vplan_core.Budget.t ->
  annotate:(Query.t -> Atom.t list -> M3.plan) ->
  Estimate.t ->
  Query.t list ->
  m3_est_choice option

(** [best_m3 ~annotate db candidates] — the M3-cheapest candidate under
    the per-candidate annotation function (supplementary or renaming
    heuristic), branch-and-bound over the permutation search of each. *)
val best_m3 :
  ?budget:Vplan_core.Budget.t ->
  ?domains:int ->
  annotate:(Query.t -> Atom.t list -> M3.plan) ->
  Database.t ->
  Query.t list ->
  m3_choice option
