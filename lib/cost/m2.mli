(** Cost model M2 (Section 5): sizes of view relations and intermediate
    relations.

    A physical plan is an ordering [g1, ..., gn] of the rewriting's
    subgoals; joining the first [i] subgoals with {e all attributes
    retained} yields the intermediate relation [IR_i], and

    {v cost = Σ (size(g_i) + size(IR_i)) v}

    [size(·)] counts {e cells} — tuples × attributes — the natural proxy
    for the disk-I/O volume the paper's cost model is motivated by.  (A
    pure tuple count cannot see that dropping attributes shrinks a
    relation, which Section 6's comparisons rely on.)

    Because attributes are never dropped, [size(IR_i)] depends only on the
    {e set} of joined subgoals, so the optimal ordering is found by dynamic
    programming over subsets.  The DP supports three accelerations used by
    the candidate-selection engine ({!Select}):

    - a cross-candidate {!Subplan} memo shares environment sets between
      candidates whose subgoal subsets coincide, and keeps the counted
      cells of each full subgoal set; a DP that finds every state there
      never converts a relation to tuple arrays;
    - an optional [bound] turns the DP into branch-and-bound: states that
      provably cannot complete below the bound never materialize their
      environments, and the whole DP aborts once a popcount layer dies;
    - variable sets are bitsets over a per-body index, so connectivity
      tests and widths are word operations.

    An exhaustive permutation search is provided as a cross-check. *)

open Vplan_cq
open Vplan_relational
module Budget = Vplan_core.Budget

(** Bodies longer than this are rejected with
    [Vplan_error.Error (Width_limit _)]: the subset DP allocates
    [2^n] states. *)
val max_subgoals : int

(** [cost_of_order db order] evaluates a specific ordering against the
    database (normally the materialized-view database).  With [memo] the
    cost is kept in the memo's cells-only namespace, keyed by the atoms
    in join order, so costing the same order again joins nothing. *)
val cost_of_order : ?memo:Subplan.t -> Database.t -> Atom.t list -> int

(** [optimal db body] returns a cost-optimal ordering of [body] and its
    cost, by DP over subsets.  [memo] shares subplan evaluations across
    calls against the same [db]; [budget] is ticked once per DP state.
    Raises [Vplan_error.Error (Width_limit _)] past {!max_subgoals}. *)
val optimal :
  ?memo:Subplan.t ->
  ?budget:Budget.t ->
  Database.t ->
  Atom.t list ->
  Atom.t list * int

(** [optimal_pruned ?bound db body] — branch-and-bound variant.
    Returns [None] when no ordering has total cost [< bound] (in
    particular, immediately when the relation cells alone reach the
    bound); otherwise [Some (order, cost)] with [cost < bound], and the
    result is identical to {!optimal}'s.  [bound] defaults to unbounded,
    where the result is always [Some]. *)
val optimal_pruned :
  ?memo:Subplan.t ->
  ?budget:Budget.t ->
  ?bound:int ->
  Database.t ->
  Atom.t list ->
  (Atom.t list * int) option

(** [optimal_exhaustive db body] — same result via all permutations
    (testing only; factorial, capped by {!Orderings.max_subgoals}). *)
val optimal_exhaustive : Database.t -> Atom.t list -> Atom.t list * int

(** [optimal_connected db body] — DP restricted to {e connected} prefixes
    (every joined subgoal shares a variable with an earlier one), the
    standard cross-product-avoiding heuristic of production optimizers.
    [None] when [body]'s join graph is disconnected (no such ordering
    exists) — or, with [bound], when no connected ordering beats it.
    The result can be costlier than {!optimal} — a cross product is
    occasionally the cheapest plan — but the search space is much
    smaller; the [joinorder] bench quantifies both effects.  Connectivity
    is tested on bitset variable masks rather than by rescanning variable
    sets per state. *)
val optimal_connected :
  ?memo:Subplan.t ->
  ?budget:Budget.t ->
  ?bound:int ->
  Database.t ->
  Atom.t list ->
  (Atom.t list * int) option

(** {2 Estimated-size mode}

    The same cost measure driven by {!Estimate} join profiles instead
    of materialized intermediate relations: plans are costed from
    statistics alone, never touching the data.  Because
    [Estimate.join_profiles] is not associative, subset profiles are
    pinned to a canonical fold order, which makes the two functions
    consistent: {!estimated_cost_of_order} of the order returned by
    {!optimal_estimated} equals the returned cost. *)

(** [estimated_cost_of_order est order] — estimated M2 cells of the
    ordering, relation cells included. *)
val estimated_cost_of_order : Estimate.t -> Atom.t list -> float

(** [optimal_estimated est body] — the ordering minimizing the estimated
    M2 cost, by DP over subsets (ties resolved deterministically).
    [budget] is ticked once per DP state.  Raises
    [Vplan_error.Error (Width_limit _)] past {!max_subgoals}. *)
val optimal_estimated :
  ?budget:Budget.t -> Estimate.t -> Atom.t list -> Atom.t list * float

(** [estimated_lower_bound est body] — relation cells plus the full-set
    intermediate-result cells: a lower bound on
    {!estimated_cost_of_order} over {e every} ordering of [body] (the
    full set is each order's last prefix and all terms are
    nonnegative).  An order whose estimated cost reaches it is provably
    optimal; a candidate whose bound reaches the incumbent can be
    skipped without running the DP. *)
val estimated_lower_bound : Estimate.t -> Atom.t list -> float

(** [intermediate_sizes db order] lists the {e tuple counts} of
    [IR_1, ..., IR_n] (widths are implied by the variables joined). *)
val intermediate_sizes : Database.t -> Atom.t list -> int list

(** [relation_cells db atom] — [size(g)] of a stored relation: cardinality
    times arity (at least 1). *)
val relation_cells : Database.t -> Atom.t -> int

(** [body_relation_cells db body] — Σ {!relation_cells} over [body]: the
    order-independent part of the M2 cost, and hence a cheap lower bound
    on any plan for [body]. *)
val body_relation_cells : Database.t -> Atom.t list -> int
