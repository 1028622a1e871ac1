(** High-level planning facade: parse → rewrite → optimize → execute.

    This is the one-shot entry point combining the rewriting generator
    (CoreCover), the cost-based optimizer ({!Vplan_cost.Select}) and the
    relational engine, mirroring the paper's two-step architecture end
    to end.  Resident callers plan through {!Vplan_service.Service},
    which adds a cross-request memo and canonical planning over the
    same {!Vplan_cost.Select} engine.

    Plans are costed against the materialized view relations (the
    closed-world model), which is faithful to M2/M3's definitions on
    concrete instances. *)

open Vplan_cq
open Vplan_views
open Vplan_relational

type problem = {
  query : Query.t;
  views : View.t list;
}

(** [problem_of_program rules] takes the first rule as the query and the
    rest as views; validates view-name uniqueness. *)
val problem_of_program : Query.t list -> (problem, string) result

(** [parse_problem src] parses a Datalog program (see {!Parser}). *)
val parse_problem : string -> (problem, string) result

type analysis = {
  problem : problem;
  minimized_query : Query.t;
  gmrs : Query.t list;  (** optimal under M1 *)
  minimal_rewritings : Query.t list;  (** the M2 search space *)
  filters : View_tuple.t list;
  maximally_contained : Ucq.t option;
      (** open-world fallback when no equivalent rewriting exists *)
}

(** [analyze problem] runs CoreCover / CoreCover{^ *}; when no equivalent
    rewriting exists it falls back to MiniCon's maximally-contained union
    (the open-world answer). *)
val analyze : problem -> analysis

(** A planning context for one (problem, base) pair: the materialized
    view database, one CoreCover{^ *} run (candidate rewritings and
    filter tuples) and a subplan memo shared by every {!plan} call on
    it. *)
type t

(** [create problem ~base] materializes the views over [base].
    CoreCover{^ *} runs once, on the first {!plan}. *)
val create : problem -> base:Database.t -> t

(** The materialized view relations every plan is costed and executed
    against. *)
val view_database : t -> Database.t

type plan =
  | Logical of Query.t  (** M1: no physical detail *)
  | Ordered of { rewriting : Query.t; order : Atom.t list; cost : int }
      (** M2, costed exactly; [rewriting] has filters appended if any *)
  | Estimated of { rewriting : Query.t; order : Atom.t list; est_cost : float }
      (** M2, costed from base-table statistics alone *)
  | Annotated of { rewriting : Query.t; plan : Vplan_cost.M3.plan; cost : int }  (** M3 *)

(** [`M2_estimated] ranks candidates by the M2 cost estimated from
    statistics of the base relations; no view is materialized for
    costing, though {!execute} still runs over the context's views. *)
type cost_model =
  [ `M1 | `M2 | `M2_estimated | `M3 of [ `Supplementary | `Heuristic ] ]

(** [plan ~cost_model t] picks the optimal rewriting and plan.  [domains]
    scores candidates in parallel (identical result); [budget] bounds the
    selection.  [None] when the query has no equivalent rewriting. *)
val plan :
  ?budget:Vplan_core.Budget.t ->
  ?domains:int ->
  cost_model:cost_model ->
  t ->
  plan option

(** [execute t p] runs a plan against the context's materialized views
    and returns the answer relation. *)
val execute : t -> plan -> Relation.t

(** [answer_via_views ~cost_model problem ~base] — the full pipeline:
    plan and execute, falling back to the certain answers of MiniCon's
    maximally-contained union ([`Fallback_certain]) when no equivalent
    rewriting exists.  This is the one-call API. *)
val answer_via_views :
  cost_model:cost_model ->
  problem ->
  base:Database.t ->
  [ `Equivalent of plan * Relation.t | `Fallback_certain of Relation.t | `No_rewriting ]
