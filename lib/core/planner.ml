open Vplan_cq
open Vplan_views
open Vplan_relational
open Vplan_rewrite
open Vplan_cost
open Vplan_baselines

type problem = {
  query : Query.t;
  views : View.t list;
}

let problem_of_program = function
  | [] -> Error "empty program: expected a query rule followed by view rules"
  | query :: views -> (
      match View.validate_set views with
      | Ok () -> Ok { query; views }
      | Error msg -> Error msg)

let parse_problem src =
  match Parser.parse_program src with
  | Error e -> Error (Vplan_core.Vplan_error.parse_to_string e)
  | Ok rules -> problem_of_program rules

type analysis = {
  problem : problem;
  minimized_query : Query.t;
  gmrs : Query.t list;
  minimal_rewritings : Query.t list;
  filters : View_tuple.t list;
  maximally_contained : Ucq.t option;
}

let analyze problem =
  let { query; views } = problem in
  let all = Corecover.all_minimal ~query ~views () in
  let gmrs = M1.best all.Corecover.rewritings in
  let maximally_contained =
    if all.Corecover.rewritings = [] then Minicon.maximally_contained ~query ~views ()
    else None
  in
  {
    problem;
    minimized_query = all.Corecover.minimized_query;
    gmrs;
    minimal_rewritings = all.Corecover.rewritings;
    filters = all.Corecover.filters;
    maximally_contained;
  }

type t = {
  problem : problem;
  base : Database.t;
  view_db : Database.t;
  corecover : Corecover.result Lazy.t;
  memo : Subplan.t;
}

let create problem ~base =
  let view_db =
    Vplan_obs.Obs.phase "materialize" (fun () -> Materialize.views base problem.views)
  in
  let corecover = lazy (Corecover.all_minimal ~query:problem.query ~views:problem.views ()) in
  { problem; base; view_db; corecover; memo = Subplan.create () }

let view_database t = t.view_db

type plan =
  | Logical of Query.t
  | Ordered of {
      rewriting : Query.t;
      order : Atom.t list;
      cost : int;
    }
  | Estimated of {
      rewriting : Query.t;
      order : Atom.t list;
      est_cost : float;
    }
  | Annotated of {
      rewriting : Query.t;
      plan : M3.plan;
      cost : int;
    }

type cost_model =
  [ `M1 | `M2 | `M2_estimated | `M3 of [ `Supplementary | `Heuristic ] ]

let plan ?budget ?domains ~cost_model t =
  let corecover = Lazy.force t.corecover in
  let candidates = corecover.Corecover.rewritings in
  match cost_model with
  | `M1 -> ( match M1.best candidates with [] -> None | p :: _ -> Some (Logical p))
  | `M2 ->
      Option.map
        (fun (c : Select.m2_choice) ->
          Ordered { rewriting = c.m2_rewriting; order = c.m2_order; cost = c.m2_cost })
        (Select.best_m2 ~memo:t.memo ?budget ?domains
           ~filters:corecover.Corecover.filters t.view_db candidates)
  | `M2_estimated ->
      let est =
        Estimate.view_stats (Estimate.of_stats (Vplan_stats.Stats.collect t.base))
          t.problem.views
      in
      Option.map
        (fun (c : Select.m2_est_choice) ->
          Estimated { rewriting = c.est_rewriting; order = c.est_order; est_cost = c.est_cost })
        (Select.best_m2_estimated ?budget est candidates)
  | `M3 strategy ->
      let { query; views } = t.problem in
      let annotate (p : Query.t) order =
        match strategy with
        | `Supplementary -> M3.supplementary ~head:p.head order
        | `Heuristic -> M3.heuristic ~views ~query ~head:p.head order
      in
      Option.map
        (fun (c : Select.m3_choice) ->
          Annotated { rewriting = c.m3_rewriting; plan = c.m3_plan; cost = c.m3_cost })
        (Select.best_m3 ?budget ?domains ~annotate t.view_db candidates)

let execute t = function
  | Logical rewriting | Ordered { rewriting; _ } | Estimated { rewriting; _ } ->
      Materialize.answers_via_rewriting t.view_db rewriting
  | Annotated { rewriting; plan; _ } -> M3.answers t.view_db ~head:rewriting.Query.head plan

let answer_via_views ~cost_model problem ~base =
  let t = create problem ~base in
  match plan ~cost_model t with
  | Some p -> `Equivalent (p, execute t p)
  | None -> (
      match Minicon.maximally_contained ~query:problem.query ~views:problem.views () with
      | None -> `No_rewriting
      | Some union -> `Fallback_certain (Eval.answers_ucq t.view_db union))
