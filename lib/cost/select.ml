open Vplan_cq
module Parallel = Vplan_parallel.Parallel
module Obs = Vplan_obs.Obs
module Trace = Vplan_obs.Trace
module Metrics = Vplan_obs.Metrics
module Hypergraph = Vplan_hypergraph.Hypergraph

let candidates_total = Metrics.counter "vplan_select_candidates_total"
let pruned_total = Metrics.counter "vplan_select_pruned_total"

(* Acyclic bodies come with a Yannakakis-consistent join order for free
   (the join tree's parents-before-children order); costing that single
   order seeds the branch-and-bound search with a bound at most one
   above it.  Accepted DP results are bound-independent and the
   permutation folds return the first order attaining the minimum
   either way, so seeding changes which states get pruned — never which
   plan is returned. *)
let tree_seed body =
  match Hypergraph.tree_order body with
  | Some (_ :: _ :: _ as order) -> Some order
  | Some _ | None -> None

type m2_choice = {
  m2_rewriting : Query.t;
  m2_order : Atom.t list;
  m2_cost : int;
}

type m3_choice = {
  m3_rewriting : Query.t;
  m3_plan : M3.plan;
  m3_cost : int;
}

(* Rank candidates cheapest-estimated-first so the incumbent starts
   strong; keep the original position for the deterministic tie-break.
   A single candidate needs no catalog at all. *)
let rank ?rank_estimate db (candidates : Query.t list) =
  let indexed = List.mapi (fun i p -> (i, p)) candidates in
  match indexed with
  | [] | [ _ ] -> indexed
  | _ ->
      let est =
        match rank_estimate with
        | Some get -> get ()
        | None -> Estimate.analyze db
      in
      let keyed =
        List.map (fun (i, p) -> (Estimate.order_cost est p.Query.body, i, p)) indexed
      in
      let keyed =
        List.stable_sort
          (fun (a, i, _) (b, j, _) ->
            match Float.compare a b with 0 -> Int.compare i j | c -> c)
          keyed
      in
      List.map (fun (_, i, p) -> (i, p)) keyed

let rec note incumbent c =
  let cur = Atomic.get incumbent in
  if c < cur && not (Atomic.compare_and_set incumbent cur c) then note incumbent c

(* Score the ranked candidates under a shared incumbent.  Each worker
   reads [bound = incumbent + 1], so a candidate can only be pruned when
   it provably costs MORE than the incumbent — ties are always evaluated
   in full, making the final min-by-(cost, position) independent of
   domain count and of scheduling. *)
let run ?budget ?(domains = 1) ~score ranked =
  match ranked with
  | [] -> None
  | first :: rest ->
      let incumbent = Atomic.make max_int in
      let pruned = Atomic.make 0 in
      let eval (idx, cand) =
        let b = Atomic.get incumbent in
        let bound = if b = max_int then max_int else b + 1 in
        match score ~bound cand with
        | Some (r, cost) ->
            note incumbent cost;
            Some (idx, r, cost)
        | None ->
            Atomic.incr pruned;
            None
      in
      let seeded = eval first in
      let rest_results = Parallel.map ?budget ~domains eval rest in
      Metrics.add candidates_total (List.length ranked);
      Metrics.add pruned_total (Atomic.get pruned);
      Trace.annotate "candidates" (float_of_int (List.length ranked));
      Trace.annotate "pruned" (float_of_int (Atomic.get pruned));
      List.fold_left
        (fun best r ->
          match (best, r) with
          | None, r -> r
          | best, None -> best
          | Some (bi, _, bc), Some (i, _, c) ->
              if c < bc || (c = bc && i < bi) then r else best)
        seeded rest_results

let best_m2 ?memo ?rank_estimate ?budget ?(domains = 1) ?(filters = []) db
    candidates =
  Obs.phase "plan_select" @@ fun () ->
  let memo_before =
    if Trace.enabled () then Option.map Subplan.counters memo else None
  in
  let score ~bound (p : Query.t) =
    match filters with
    | [] -> (
        (* the quick reject the DP would apply anyway, hoisted so the
           tree order is never materialized for a hopeless candidate *)
        if M2.body_relation_cells db p.Query.body >= bound then None
        else
          let bound, seeded =
            match tree_seed p.Query.body with
            | None -> (bound, None)
            | Some order ->
                let c = M2.cost_of_order ?memo db order in
                if c + 1 < bound then (c + 1, Some (order, c)) else (bound, None)
          in
          match M2.optimal_pruned ?memo ?budget ~bound db p.Query.body with
          | Some (order, cost) -> Some ((p.Query.body, order), cost)
          | None ->
              (* unreachable when seeded (the tree order itself costs
                 under the bound); kept as the sound completion *)
              Option.map
                (fun (order, c) -> ((p.Query.body, order), c))
                seeded)
    | _ :: _ ->
        (* Filter atoms only ever ADD relation cells, so the bare body's
           relation cells lower-bound any filtered plan; past the bound,
           skip without joining anything.  The improvement itself stays
           exact (greedy comparisons need true costs). *)
        if M2.body_relation_cells db p.Query.body >= bound then None
        else
          let body, order, cost =
            Filter.improve ?memo ?budget db ~filters p.Query.body
          in
          if cost < bound then Some ((body, order), cost) else None
  in
  let result =
    match run ?budget ~domains ~score (rank ?rank_estimate db candidates) with
    | None -> None
    | Some (idx, (body, order), cost) ->
        let p = List.nth candidates idx in
        Some
          {
            m2_rewriting = Query.make_exn p.Query.head body;
            m2_order = order;
            m2_cost = cost;
          }
  in
  (match (memo, memo_before) with
  | Some m, Some before ->
      let after = Subplan.counters m in
      Trace.annotate "memo_hits" (float_of_int (after.hits - before.hits));
      Trace.annotate "memo_misses" (float_of_int (after.misses - before.misses))
  | _ -> ());
  result

type m2_est_choice = {
  est_rewriting : Query.t;
  est_order : Atom.t list;
  est_cost : float;
}

type m3_est_choice = {
  est3_rewriting : Query.t;
  est3_plan : M3.plan;
  est3_cost : float;
}

(* Estimated-mode selection never materializes a join: a sequential
   fold over the candidates is both the simplest and a deterministic
   choice (first strict minimum wins).  Two acyclicity-aware cuts keep
   the subset DP out of the common cases without changing the choice:
   a candidate whose estimated lower bound (relation cells + full-set
   IR) reaches the incumbent can never win the strict comparison, and
   when the join-tree order's estimated cost equals the lower bound it
   is provably optimal, so the DP's answer is foregone. *)
let best_m2_estimated ?budget est candidates =
  Obs.phase "plan_select" @@ fun () ->
  Metrics.add candidates_total (List.length candidates);
  let pruned = ref 0 in
  let _, best =
    List.fold_left
      (fun (idx, best) (p : Query.t) ->
        Vplan_core.Budget.tick budget;
        let lb = M2.estimated_lower_bound est p.Query.body in
        let hopeless =
          match best with None -> false | Some (_, bc) -> lb >= bc
        in
        if hopeless then begin
          incr pruned;
          (idx + 1, best)
        end
        else begin
          let order, cost =
            match tree_seed p.Query.body with
            | Some order when M2.estimated_cost_of_order est order <= lb ->
                (order, lb)
            | Some _ | None -> M2.optimal_estimated ?budget est p.Query.body
          in
          let better =
            match best with None -> true | Some (_, bc) -> cost < bc
          in
          ( idx + 1,
            if better then
              Some
                ({ est_rewriting = p; est_order = order; est_cost = cost }, cost)
            else best )
        end)
      (0, None) candidates
  in
  Metrics.add pruned_total !pruned;
  Option.map fst best

let best_m3_estimated ?budget ~annotate est candidates =
  Obs.phase "plan_select" @@ fun () ->
  Metrics.add candidates_total (List.length candidates);
  let _, best =
    List.fold_left
      (fun (idx, best) (p : Query.t) ->
        Vplan_core.Budget.tick budget;
        let plan, cost =
          M3.optimal_estimated ?budget est ~annotate:(annotate p) p.Query.body
        in
        let better = match best with None -> true | Some (_, bc) -> cost < bc in
        ( idx + 1,
          if better then
            Some
              ({ est3_rewriting = p; est3_plan = plan; est3_cost = cost }, cost)
          else best ))
      (0, None) candidates
  in
  Option.map fst best

let best_m3 ?budget ?(domains = 1) ~annotate db candidates =
  Obs.phase "plan_select" @@ fun () ->
  let score ~bound (p : Query.t) =
    let annotate = annotate p in
    let bound =
      match tree_seed p.Query.body with
      | None -> bound
      | Some order -> (
          match M3.cost_of_plan_bounded db ~bound (annotate order) with
          | Some c when c + 1 < bound -> c + 1
          | Some _ | None -> bound)
    in
    M3.optimal_pruned ?budget ~bound db ~annotate p.Query.body
  in
  match run ?budget ~domains ~score (rank db candidates) with
  | None -> None
  | Some (idx, plan, cost) ->
      let p = List.nth candidates idx in
      Some { m3_rewriting = p; m3_plan = plan; m3_cost = cost }
