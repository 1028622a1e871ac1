open Vplan_cq
module Corecover = Vplan_rewrite.Corecover
module Normalize = Vplan_rewrite.Normalize
module Parallel = Vplan_parallel.Parallel
module Budget = Vplan_core.Budget
module Database = Vplan_relational.Database
module Materialize = Vplan_views.Materialize
module Subplan = Vplan_cost.Subplan
module Select = Vplan_cost.Select
module Estimate = Vplan_cost.Estimate
module Stats = Vplan_stats.Stats
module Qerror = Vplan_stats.Qerror
module Metrics = Vplan_obs.Metrics
module Obs = Vplan_obs.Obs
module Profile = Vplan_obs.Profile
module Exec = Vplan_exec.Exec
module Interned = Vplan_exec.Interned
module Hypergraph = Vplan_hypergraph.Hypergraph

let requests_total = Metrics.counter "vplan_rewrite_requests_total"
let bypasses_total = Metrics.counter "vplan_rewrite_bypasses_total"
let truncated_total = Metrics.counter "vplan_rewrite_truncated_total"
let plan_requests_total = Metrics.counter "vplan_plan_requests_total"
let analyze_requests_total = Metrics.counter "vplan_analyze_requests_total"
let generation_resets_total = Metrics.counter "vplan_generation_resets_total"
let request_ms = Metrics.histogram "vplan_request_ms"

let estimate_qerror_h =
  Metrics.histogram
    ~help:"per-query q-error of analyze requests (max est/actual row ratio \
           over the operator tree, dimensionless)"
    "vplan_estimate_qerror"

type source = Hit | Miss | Bypass

(* A CoreCover result reduced to what a reply reads, in the variables
   it was computed in.  Every rewriting is a cover by view tuples, and
   the covers of one query share few of them, so each distinct body atom
   is kept once in [pool] and a rewriting is its body as pool indices.
   Every rewriting's head is the minimized query's ([Corecover] builds
   them so). *)
type compact = {
  c_pool : Atom.t array;
  c_bodies : int array array;
  c_minimized : Query.t;
  c_completeness : Corecover.completeness;
  c_stats : Corecover.stats;
}

(* [back] renames the compact answer's variables into the caller's; a
   variable it does not bind keeps its name *)
type answer = { compact : compact; back : string Names.Smap.t }

type outcome = {
  answer : answer;
  completeness : Corecover.completeness;
  corecover_stats : Corecover.stats;
  source : source;
  ms : float;
}

type latency = {
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  max_ms : float;
}

type rel_accuracy = {
  acc_samples : int;
  acc_mean_q : float;
  acc_max_q : float;
}

type stats = {
  generation : int;
  num_views : int;
  num_view_classes : int;
  requests : int;
  hits : int;
  misses : int;
  bypasses : int;
  evictions : int;
  cache_size : int;
  cache_capacity : int;
  truncated : int;
  plan_requests : int;
  analyze_requests : int;
  generation_resets : int;
  data_relations : int;
  data_rows : int;
  latency : latency;
  estimate_accuracy : (string * rel_accuracy) list;
}

type cost_mode = Exact | Estimated

type plan_cost = Cells of int | Cells_est of float

type plan_outcome = {
  plan_rewriting : Query.t;
  plan_order : Atom.t list;
  plan_cost : plan_cost;
  plan_candidates : int;
  plan_ms : float;
}

(* Cached entries keep the canonical query alongside the result: on a
   hit the requested canonical form is compared against it, so even a
   (never observed) canonical-form collision could only cause a recompute,
   never a wrong answer. *)
type entry = { canon : Query.t; compact : compact }

(* Plan-selection state, valid for exactly one (catalog, base database)
   pair: the materialized view relations and the subplan memo keyed over
   them, plus two derivatives of the view relations built on first use —
   the statistics [Select] ranks candidates by, and the interned copy
   [analyze] executes against.  Compared by physical identity — any
   catalog swap or base load produces fresh values.  The mutable fields
   are read and written under the service lock only. *)
type plan_ctx = {
  p_cat : Catalog.t;
  p_base : Database.t;
  p_view_db : Database.t;
  p_memo : Subplan.t;
  mutable p_rank : Estimate.t option;
  mutable p_interned : Interned.t option;
}

(* Estimated-mode planning state, valid for exactly one
   (catalog, statistics) pair: the estimation catalog extended with
   per-view statistics.  Never touches the data. *)
type est_ctx = {
  e_cat : Catalog.t;
  e_stats : Stats.t;
  e_est : Estimate.t;
}

(* percentile window: the most recent [lat_window] request latencies *)
let lat_window = 1024

type t = {
  mutable cat : Catalog.t;
  cache : entry Rewrite_cache.t;
  lock : Mutex.t;
  mutable requests : int;
  mutable bypasses : int;
  mutable truncated : int;
  mutable base : Database.t option;
  mutable bstats : Stats.t option;
  mutable pctx : plan_ctx option;
  mutable ectx : est_ctx option;
  mutable plan_requests : int;
  mutable analyze_requests : int;
  mutable generation_resets : int;
  qerrors : Qerror.by_rel; (* per-relation estimate accuracy, under [lock] *)
  lat_ring : float array;
  mutable lat_next : int;  (* total latencies ever recorded *)
  mutable lat_sum : float;
  mutable lat_max : float;
}

let create ?(cache_capacity = 512) cat =
  {
    cat;
    cache = Rewrite_cache.create ~capacity:cache_capacity;
    lock = Mutex.create ();
    requests = 0;
    bypasses = 0;
    truncated = 0;
    base = None;
    bstats = None;
    pctx = None;
    ectx = None;
    plan_requests = 0;
    analyze_requests = 0;
    generation_resets = 0;
    qerrors = Qerror.create_registry ();
    lat_ring = Array.make lat_window 0.;
    lat_next = 0;
    lat_sum = 0.;
    lat_max = 0.;
  }

let catalog t = t.cat

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_catalog t cat =
  locked t (fun () ->
      t.cat <- cat;
      Rewrite_cache.clear t.cache;
      t.pctx <- None;
      t.ectx <- None;
      (* the new catalog restarts its generation sequence; counting
         swaps here lets lifetime counters survive a [catalog load] *)
      t.generation_resets <- t.generation_resets + 1;
      Metrics.incr generation_resets_total)

let base t = locked t (fun () -> t.base)
let base_stats t = locked t (fun () -> t.bstats)

let set_base ?stats t db =
  (* statistics are collected (one scan per relation) outside the lock;
     a recovered snapshot passes its persisted stats and skips the
     scan *)
  let stats =
    match stats with
    | Some s -> s
    | None -> Obs.phase "stats_collect" (fun () -> Stats.collect db)
  in
  locked t (fun () ->
      t.base <- Some db;
      t.bstats <- Some stats;
      t.pctx <- None;
      t.ectx <- None)

(* [sigma] maps caller variables to canonical ones, bijectively and only
   var-to-var; its inverse, as a name map, renames canonical-variable
   results back. *)
let invert sigma =
  List.fold_left
    (fun back (x, term) ->
      match Term.var_name term with
      | Some y -> Names.Smap.add y x back
      | None -> back)
    Names.Smap.empty (Subst.bindings sigma)

let rename_var back x =
  match Names.Smap.find_opt x back with Some y -> y | None -> x

(* Hash-cons the rewritings' body atoms into the pool. *)
let compact (r : Corecover.result) =
  let index = Hashtbl.create 64 and pool = ref [] in
  let intern a =
    match Hashtbl.find_opt index a with
    | Some i -> i
    | None ->
        let i = Hashtbl.length index in
        Hashtbl.add index a i;
        pool := a :: !pool;
        i
  in
  let bodies =
    List.map
      (fun (p : Query.t) -> Array.of_list (List.map intern p.Query.body))
      r.Corecover.rewritings
  in
  {
    c_pool = Array.of_list (List.rev !pool);
    c_bodies = Array.of_list bodies;
    c_minimized = r.Corecover.minimized_query;
    c_completeness = r.Corecover.completeness;
    c_stats = r.Corecover.stats;
  }

let num_rewritings o = Array.length o.answer.compact.c_bodies

let rewritings o =
  let { compact = c; back } = o.answer in
  let rename = Atom.rename (rename_var back) in
  let head = rename c.c_minimized.Query.head and pool = Array.map rename c.c_pool in
  Array.to_list
    (Array.map
       (fun body -> Query.make_exn head (List.map (Array.get pool) (Array.to_list body)))
       c.c_bodies)

let minimized_query o =
  Query.rename (rename_var o.answer.back) o.answer.compact.c_minimized

(* Each pool atom and the head are renamed and printed once; every line
   is then blitted together from those strings. *)
let render_rewritings buf o =
  let { compact = c; back } = o.answer in
  let print a = Atom.to_string (Atom.rename (rename_var back) a) in
  let head = print c.c_minimized.Query.head ^ " :- " and atoms = Array.map print c.c_pool in
  Array.iter
    (fun body ->
      Buffer.add_string buf head;
      Array.iteri
        (fun i k ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf atoms.(k))
        body;
      Buffer.add_char buf '\n')
    c.c_bodies

let record t ~probed ~completeness ~ms =
  Metrics.incr requests_total;
  Metrics.observe request_ms ms;
  if not probed then Metrics.incr bypasses_total;
  (match completeness with
  | Corecover.Truncated _ -> Metrics.incr truncated_total
  | Corecover.Complete -> ());
  locked t (fun () ->
      t.requests <- t.requests + 1;
      (* [bypasses] counts requests that never probed the cache
         (uncacheable canonicalization); a truncated request probed and
         missed, so it is already in the cache's miss counter *)
      if not probed then t.bypasses <- t.bypasses + 1;
      (match completeness with
      | Corecover.Truncated _ -> t.truncated <- t.truncated + 1
      | Corecover.Complete -> ());
      t.lat_ring.(t.lat_next mod lat_window) <- ms;
      t.lat_next <- t.lat_next + 1;
      t.lat_sum <- t.lat_sum +. ms;
      if ms > t.lat_max then t.lat_max <- ms)

let rewrite ?budget ?max_covers ?(domains = 1) t query =
  let clock = Budget.create () in
  let finish ~probed ~source compact back =
    let ms = Budget.elapsed_ms clock in
    record t ~probed ~completeness:compact.c_completeness ~ms;
    {
      answer = { compact; back };
      completeness = compact.c_completeness;
      corecover_stats = compact.c_stats;
      source;
      ms;
    }
  in
  (* snapshot the catalog: a concurrent [set_catalog] must not mix
     generations within one request *)
  let cat = locked t (fun () -> t.cat) in
  let run q =
    Corecover.gmrs ?budget ?max_covers
      ~view_classes:(Catalog.view_classes cat)
      ~domains ~query:q ~views:(Catalog.views cat) ()
  in
  match Normalize.canonicalize query with
  | None ->
      (* canonical-labeling search blew its cap: uncacheable, run as-is *)
      finish ~probed:false ~source:Bypass (compact (run query)) Names.Smap.empty
  | Some (canon, sigma) -> (
      let key = Query.to_string canon in
      let back = invert sigma in
      let cached =
        locked t (fun () ->
            if t.cat != cat then None
            else
              match Rewrite_cache.find t.cache key with
              | Some e when Query.equal e.canon canon -> Some e.compact
              | Some _ | None -> None)
      in
      match cached with
      | Some c -> finish ~probed:true ~source:Hit c back
      | None ->
          let c = compact (run canon) in
          let source =
            match c.c_completeness with
            | Corecover.Complete ->
                locked t (fun () ->
                    (* only publish results computed against the live
                       catalog generation *)
                    if t.cat == cat then Rewrite_cache.add t.cache key { canon; compact = c });
                Miss
            | Corecover.Truncated _ -> Bypass
          in
          finish ~probed:true ~source c back)

let rewrite_batch ?(make_budget = fun () -> None) ?max_covers ?(domains = 1) t
    queries =
  Parallel.map ~domains
    (fun query -> rewrite ?budget:(make_budget ()) ?max_covers t query)
    queries

(* Cached per-generation state is published with one discipline:
   [build] runs outside the lock (it can join every view body), and a
   value another domain published meanwhile wins, so all requests share
   one copy — and, for a plan context, one memo. *)
let publish_once t ~get ~set build =
  match locked t get with
  | Some v -> v
  | None ->
      let fresh = build () in
      locked t (fun () ->
          match get () with
          | Some v -> v
          | None ->
              set fresh;
              fresh)

(* Reuse the cached plan context when both the catalog and the base are
   the ones it was built for; otherwise materialize the views. *)
let plan_ctx t cat db =
  publish_once t
    ~get:(fun () ->
      match t.pctx with
      | Some ctx when ctx.p_cat == cat && ctx.p_base == db -> Some ctx
      | _ -> None)
    ~set:(fun ctx -> t.pctx <- Some ctx)
    (fun () ->
      {
        p_cat = cat;
        p_base = db;
        p_view_db =
          (* traced: on the first plan after a catalog/base change this
             dominates the request, and explain should show it *)
          Obs.phase "materialize" (fun () ->
              Materialize.views db (Catalog.views cat));
        p_memo = Subplan.create ();
        p_rank = None;
        p_interned = None;
      })

(* The estimation catalog; building it folds a join profile per view
   body — cheap, but traced so explain shows where estimated-mode time
   goes on the first request. *)
let est_ctx t cat stats =
  let ctx =
    publish_once t
      ~get:(fun () ->
        match t.ectx with
        | Some ctx when ctx.e_cat == cat && ctx.e_stats == stats -> Some ctx
        | _ -> None)
      ~set:(fun ctx -> t.ectx <- Some ctx)
      (fun () ->
        let est =
          Obs.phase "estimate" (fun () ->
              Estimate.view_stats (Estimate.of_stats stats) (Catalog.views cat))
        in
        { e_cat = cat; e_stats = stats; e_est = est })
  in
  ctx.e_est

(* A plan context's ranking statistics and interned view image, built on
   first use rather than with the context, so creating one costs no
   more than materializing the views. *)
let rank_estimate t ctx () =
  publish_once t
    ~get:(fun () -> ctx.p_rank)
    ~set:(fun v -> ctx.p_rank <- Some v)
    (fun () -> Estimate.analyze ctx.p_view_db)

let interned t ctx =
  publish_once t
    ~get:(fun () -> ctx.p_interned)
    ~set:(fun v -> ctx.p_interned <- Some v)
    (fun () -> Obs.phase "intern" (fun () -> Interned.of_database ctx.p_view_db))

(* Candidate enumeration and cost-based choice, shared by [plan] and
   [analyze].  Returns the CoreCover result alongside the chosen
   (rewriting, join order, cost), if any rewriting exists.

   Planning runs on the canonical query, as [rewrite] does, and renames
   the choice back into the caller's variables.  The subplan memo keys
   its states by atom renderings, so only canonical variables let a
   renamed or reordered request reuse an earlier request's joins.  An
   uncanonicalizable query is planned as-is. *)
let plan_choice ?budget ?max_covers ~domains ~cost_mode t cat db stats query =
  let query, back =
    match Normalize.canonicalize query with
    | None -> (query, Names.Smap.empty)
    | Some (canon, sigma) -> (canon, invert sigma)
  in
  let r =
    Corecover.all_minimal ?budget ?max_results:max_covers
      ~view_classes:(Catalog.view_classes cat)
      ~domains ~query ~views:(Catalog.views cat) ()
  in
  let choice =
    match cost_mode with
    | Exact ->
        let ctx = plan_ctx t cat db in
        Option.map
          (fun (c : Select.m2_choice) ->
            (c.Select.m2_rewriting, c.Select.m2_order, Cells c.Select.m2_cost))
          (Select.best_m2 ~memo:ctx.p_memo ~rank_estimate:(rank_estimate t ctx)
             ?budget ~domains ~filters:r.Corecover.filters ctx.p_view_db
             r.Corecover.rewritings)
    | Estimated ->
        (* statistics always exist once a base is loaded ([set_base]
           collects them when the caller has none) *)
        let stats =
          match stats with
          | Some s -> s
          | None -> assert false
        in
        let est = est_ctx t cat stats in
        Option.map
          (fun (c : Select.m2_est_choice) ->
            ( c.Select.est_rewriting,
              c.Select.est_order,
              Cells_est c.Select.est_cost ))
          (Select.best_m2_estimated ?budget est r.Corecover.rewritings)
  in
  ( r,
    Option.map
      (fun (rw, order, cost) ->
        let rename = rename_var back in
        (Query.rename rename rw, List.map (Atom.rename rename) order, cost))
      choice )

let plan ?budget ?max_covers ?(domains = 1) ?(cost_mode = Exact) t query =
  let clock = Budget.create () in
  let cat, db, stats = locked t (fun () -> (t.cat, t.base, t.bstats)) in
  match db with
  | None -> raise Vplan_core.Vplan_error.(Error No_base_database)
  | Some db ->
      let r, choice =
        plan_choice ?budget ?max_covers ~domains ~cost_mode t cat db stats query
      in
      let ms = Budget.elapsed_ms clock in
      Metrics.incr plan_requests_total;
      Metrics.observe request_ms ms;
      locked t (fun () -> t.plan_requests <- t.plan_requests + 1);
      Option.map
        (fun (plan_rewriting, plan_order, plan_cost) ->
          {
            plan_rewriting;
            plan_order;
            plan_cost;
            plan_candidates = List.length r.Corecover.rewritings;
            plan_ms = ms;
          })
        choice

type analyze_outcome = {
  an_rewriting : Query.t;
  an_order : Atom.t list;
  an_cost : plan_cost;
  an_candidates : int;
  an_answers : int;
  an_classification : string;
  an_qerror : float;
  an_profile : Profile.node;
  an_ms : float;
}

let analyze ?budget ?max_covers ?(domains = 1) ?(cost_mode = Exact) t query =
  let clock = Budget.create () in
  let cat, db, stats = locked t (fun () -> (t.cat, t.base, t.bstats)) in
  match db with
  | None -> raise Vplan_core.Vplan_error.(Error No_base_database)
  | Some db -> (
      let r, choice =
        plan_choice ?budget ?max_covers ~domains ~cost_mode t cat db stats query
      in
      match choice with
      | None -> None
      | Some (rw, order, cost) ->
          let ctx = plan_ctx t cat db in
          let stats = match stats with Some s -> s | None -> assert false in
          let est = est_ctx t cat stats in
          (* the estimate callback the engine consults per operator:
             single atoms estimate their selection, longer prefixes fold
             join profiles in executed order (the fold is not
             associative, so the order matters and the engine supplies
             the one it actually ran) *)
          let estimate atoms =
            match atoms with
            | [] -> Float.nan
            | [ a ] -> Estimate.atom_cardinality est a
            | a :: rest ->
                Estimate.profile_card
                  (List.fold_left
                     (fun p b -> Estimate.join_profiles p (Estimate.atom_profile est b))
                     (Estimate.atom_profile est a)
                     rest)
          in
          (* the interned view image is the plan context's, built by the
             first analyze after a catalog or base change: interning
             costs several times the join it feeds *)
          let interned = interned t ctx in
          let ordered = Query.make_exn rw.Query.head order in
          let profile = Profile.create ~name:(Query.to_string rw) () in
          let answers =
            Obs.phase "analyze_exec" (fun () ->
                Exec.answers ?budget ~profile ~estimate interned ordered)
          in
          let root = Profile.finish profile in
          let qerror = Profile.max_qerror root in
          let classification =
            match Hypergraph.classify ordered.Query.body with
            | Hypergraph.Acyclic _ -> "acyclic"
            | Hypergraph.Cyclic -> "cyclic"
          in
          if not (Float.is_nan qerror) then
            Metrics.observe estimate_qerror_h qerror;
          let ms = Budget.elapsed_ms clock in
          Metrics.incr analyze_requests_total;
          Metrics.observe request_ms ms;
          locked t (fun () ->
              t.analyze_requests <- t.analyze_requests + 1;
              (* per-relation accuracy: selection estimates attribute
                 directly to the scanned relation *)
              List.iter
                (fun (n : Profile.node) ->
                  if n.Profile.op = "select" && n.Profile.rows_out >= 0 then
                    let q =
                      Profile.qerror ~est:n.Profile.est_rows
                        ~actual:n.Profile.rows_out
                    in
                    if not (Float.is_nan q) then
                      Qerror.observe_rel t.qerrors n.Profile.name q)
                (Profile.preorder root));
          Some
            {
              an_rewriting = rw;
              an_order = order;
              an_cost = cost;
              an_candidates = List.length r.Corecover.rewritings;
              an_answers = Vplan_relational.Relation.cardinality answers;
              an_classification = classification;
              an_qerror = qerror;
              an_profile = root;
              an_ms = ms;
            })

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let stats t =
  locked t (fun () ->
      let c = Rewrite_cache.counters t.cache in
      let n = min t.lat_next lat_window in
      let window = Array.sub t.lat_ring 0 n in
      Array.sort compare window;
      let latency =
        {
          count = t.lat_next;
          mean_ms = (if t.lat_next = 0 then 0. else t.lat_sum /. float_of_int t.lat_next);
          p50_ms = percentile window 0.50;
          p95_ms = percentile window 0.95;
          max_ms = t.lat_max;
        }
      in
      {
        generation = Catalog.generation t.cat;
        num_views = Catalog.num_views t.cat;
        num_view_classes = Catalog.num_classes t.cat;
        requests = t.requests;
        hits = c.Rewrite_cache.hits;
        misses = c.Rewrite_cache.misses;
        bypasses = t.bypasses;
        evictions = c.Rewrite_cache.evictions;
        cache_size = c.Rewrite_cache.size;
        cache_capacity = c.Rewrite_cache.capacity;
        truncated = t.truncated;
        plan_requests = t.plan_requests;
        analyze_requests = t.analyze_requests;
        generation_resets = t.generation_resets;
        data_relations =
          (match t.bstats with None -> 0 | Some s -> Stats.num_relations s);
        data_rows =
          (match t.bstats with None -> 0 | Some s -> Stats.total_rows s);
        latency;
        estimate_accuracy =
          List.map
            (fun (name, a) ->
              ( name,
                {
                  acc_samples = Qerror.count a;
                  acc_mean_q = Qerror.mean_q a;
                  acc_max_q = Qerror.max_q a;
                } ))
            (Qerror.bindings t.qerrors);
      })

let subplan_counters t =
  locked t (fun () -> Option.map (fun ctx -> Subplan.counters ctx.p_memo) t.pctx)
