(* The resident rewriting service: canonical cache keys (Normalize),
   catalog generations, the LRU cache, and hit-vs-fresh equivalence —
   including under concurrent dispatch. *)

open Vplan
open Helpers
module Gen = QCheck2.Gen

let seed =
  match int_of_string_opt (try Sys.getenv "QCHECK_SEED" with Not_found -> "") with
  | Some s -> s
  | None -> 0x5eed

let make_qcheck ?(count = 100) ~name gen print prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make ~count ~name ~print gen prop)

let key_exn query =
  match Normalize.cache_key query with
  | Some k -> k
  | None -> Alcotest.fail "cache_key returned None on a small query"

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)

(* Regression (ISSUE 3): canonicalization must be deterministic under
   subgoal reordering — a permuted alpha-variant of Example 4.1 must
   produce the same cache key. *)
let canonical_key_permuted_example41 () =
  let original = Example_4_1.query in
  (* Z renamed to W, body reversed and rotated *)
  let permuted = q "q(X, Y) :- b(W, Y), a(X, W), a(W, W)." in
  check_bool "same key" true (String.equal (key_exn original) (key_exn permuted));
  let renamed_head = q "q(U, V) :- a(W, W), b(W, V), a(U, W)." in
  check_bool "same key under head renaming too" true
    (String.equal (key_exn original) (key_exn renamed_head))

let canonical_key_separates () =
  let q1 = q "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)." in
  (* same predicate multiset, different join structure *)
  let q2 = q "q(X, Y) :- a(X, Z), a(Z, X), b(Z, Y)." in
  check_bool "different keys" false (String.equal (key_exn q1) (key_exn q2));
  (* head order matters: q(X,Y) vs q(Y,X) are different queries *)
  let q3 = q "q(Y, X) :- a(X, Z), a(Z, Z), b(Z, Y)." in
  check_bool "head order separates" false (String.equal (key_exn q1) (key_exn q3))

let canonicalize_sigma_witnesses () =
  let query = Car_loc_part.query in
  match Normalize.canonicalize query with
  | None -> Alcotest.fail "canonicalize failed"
  | Some (canon, sigma) ->
      check_bool "sigma maps the query onto its canonical form" true
        (Containment.isomorphic (Query.apply sigma query) canon);
      (* idempotence: the canonical form is its own canonical form *)
      check_bool "idempotent" true (String.equal (key_exn canon) (key_exn query))

let canonical_key_qcheck =
  let gen = Qcheck_gens.gen_query in
  make_qcheck ~count:250 ~name:"cache key invariant under renaming + permutation"
    gen Qcheck_gens.print_query (fun query ->
      let vars = Query.vars query in
      let sigma =
        Subst.of_list (List.mapi (fun i x -> (x, Term.Var ("Y" ^ string_of_int i))) vars)
      in
      let renamed = Query.apply sigma query in
      let permuted =
        Query.make_exn renamed.Query.head (List.rev renamed.Query.body)
      in
      match (Normalize.cache_key query, Normalize.cache_key permuted) with
      | Some k1, Some k2 -> String.equal k1 k2
      | None, None -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* LRU cache                                                           *)

let lru_eviction () =
  let c = Rewrite_cache.create ~capacity:2 in
  Rewrite_cache.add c "a" 1;
  Rewrite_cache.add c "b" 2;
  (* touch "a" so "b" is least recently used *)
  check_bool "a hits" true (Rewrite_cache.find c "a" = Some 1);
  Rewrite_cache.add c "c" 3;
  check_bool "b evicted" true (Rewrite_cache.find c "b" = None);
  check_bool "a survives" true (Rewrite_cache.find c "a" = Some 1);
  check_bool "c present" true (Rewrite_cache.find c "c" = Some 3);
  let k = Rewrite_cache.counters c in
  check_int "hits" 3 k.Rewrite_cache.hits;
  check_int "misses" 1 k.Rewrite_cache.misses;
  check_int "evictions" 1 k.Rewrite_cache.evictions;
  check_int "size" 2 k.Rewrite_cache.size

let lru_replace_is_not_eviction () =
  let c = Rewrite_cache.create ~capacity:2 in
  Rewrite_cache.add c "a" 1;
  Rewrite_cache.add c "a" 2;
  check_bool "replaced" true (Rewrite_cache.find c "a" = Some 2);
  check_int "no eviction" 0 (Rewrite_cache.counters c).Rewrite_cache.evictions;
  check_int "size 1" 1 (Rewrite_cache.counters c).Rewrite_cache.size

(* ------------------------------------------------------------------ *)
(* Catalog generations                                                 *)

let sorted_classes classes =
  List.map (fun cls -> List.sort Query.compare cls) classes
  |> List.sort (fun c1 c2 ->
         match (c1, c2) with
         | q1 :: _, q2 :: _ -> Query.compare q1 q2
         | _ -> compare c1 c2)

let same_partition c1 c2 = sorted_classes c1 = sorted_classes c2

let catalog_incremental_add () =
  let all = Car_loc_part.views in
  let first, rest = (List.filteri (fun i _ -> i < 2) all, List.filteri (fun i _ -> i >= 2) all) in
  let scratch = Catalog.create_exn all in
  let grown =
    match Catalog.add_views (Catalog.create_exn first) rest with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  check_int "generation bumped" 2 (Catalog.generation grown);
  check_int "all views present" (List.length all) (Catalog.num_views grown);
  check_bool "incremental = from scratch (as classes, in order)" true
    (Catalog.view_classes scratch = Catalog.view_classes grown);
  (* v1 and v5 are equivalent: 5 views, 4 classes *)
  check_int "classes" 4 (Catalog.num_classes scratch)

let catalog_remove () =
  let cat = Catalog.create_exn Car_loc_part.views in
  let without =
    match Catalog.remove_views cat [ "v1" ] with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  check_int "generation bumped" 2 (Catalog.generation without);
  check_int "member gone" 4 (Catalog.num_views without);
  let scratch = Catalog.create_exn (List.filter (fun v -> View.name v <> "v1") Car_loc_part.views) in
  check_bool "partition equal to from-scratch grouping" true
    (same_partition (Catalog.view_classes without) (Catalog.view_classes scratch));
  (match Catalog.remove_views cat [ "nope" ] with
  | Ok _ -> Alcotest.fail "removing an unknown view must fail"
  | Error _ -> ());
  match Catalog.add_views cat [ q "v1(A) :- car(A, B)." ] with
  | Ok _ -> Alcotest.fail "adding a duplicate name must fail"
  | Error _ -> ()

let catalog_classes_drive_corecover () =
  let cat = Catalog.create_exn Car_loc_part.views in
  let with_catalog =
    Corecover.gmrs ~view_classes:(Catalog.view_classes cat) ~query:Car_loc_part.query
      ~views:(Catalog.views cat) ()
  in
  let without = Corecover.gmrs ~query:Car_loc_part.query ~views:Car_loc_part.views () in
  check_bool "same rewritings" true
    (List.for_all2 Query.equal with_catalog.Corecover.rewritings
       without.Corecover.rewritings)

(* ------------------------------------------------------------------ *)
(* Service: cache correctness                                          *)

let service () = Service.create (Catalog.create_exn Car_loc_part.views)

let service_hit_identical () =
  let s = service () in
  let o1 = Service.rewrite s Car_loc_part.query in
  check_bool "first is a miss" true (o1.Service.source = Service.Miss);
  let o2 = Service.rewrite s Car_loc_part.query in
  check_bool "second is a hit" true (o2.Service.source = Service.Hit);
  (* observationally identical: same rewritings, same completeness *)
  check_bool "same rewritings" true
    (List.for_all2 Query.equal (Service.rewritings o1) (Service.rewritings o2));
  check_query "same minimized query" (Service.minimized_query o1) (Service.minimized_query o2)

let service_hit_renames_back () =
  let s = service () in
  let (_ : Service.outcome) = Service.rewrite s Car_loc_part.query in
  (* permuted alpha-variant: the hit must come back in ITS variables *)
  let variant = q "q1(P, K) :- part(P, N, K), loc(anderson, K), car(N, anderson)." in
  let o = Service.rewrite s variant in
  check_bool "alpha-variant is a hit" true (o.Service.source = Service.Hit);
  let fresh = Service.rewrite (service ()) variant in
  check_bool "hit = fresh service run, exactly" true
    (List.for_all2 Query.equal (Service.rewritings o) (Service.rewritings fresh));
  (* every rewriting is a genuine equivalent rewriting of the variant *)
  List.iter
    (fun p ->
      check_bool "sound" true
        (Expansion.is_equivalent_rewriting ~views:Car_loc_part.views ~query:variant p))
    (Service.rewritings o)

let service_truncated_not_cached () =
  let s = service () in
  let o1 = Service.rewrite ~budget:(Budget.create ~max_steps:1 ()) s Car_loc_part.query in
  (match o1.Service.completeness with
  | Corecover.Truncated _ -> ()
  | Corecover.Complete -> Alcotest.fail "expected a truncated result");
  check_bool "truncated bypasses the cache" true (o1.Service.source = Service.Bypass);
  (* the truncated run must not have been stored: the next request is a
     miss and computes the real (complete) result *)
  let o2 = Service.rewrite s Car_loc_part.query in
  check_bool "next request is a miss" true (o2.Service.source = Service.Miss);
  check_bool "and complete" true (o2.Service.completeness = Corecover.Complete);
  check_bool "with rewritings" true (Service.num_rewritings o2 > 0);
  let o3 = Service.rewrite s Car_loc_part.query in
  check_bool "now cached" true (o3.Service.source = Service.Hit)

let service_generation_invalidates () =
  let s = service () in
  let o1 = Service.rewrite s Car_loc_part.query in
  let cat' =
    match Catalog.remove_views (Service.catalog s) [ "v4" ] with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Service.set_catalog s cat';
  let o2 = Service.rewrite s Car_loc_part.query in
  check_bool "cache cleared on catalog swap" true (o2.Service.source = Service.Miss);
  (* v4 gone: the single-view rewriting disappears *)
  check_bool "answers reflect the new generation" true
    (List.length (Service.rewritings o2) < List.length (Service.rewritings o1)
    || not (List.for_all2 Query.equal (Service.rewritings o1) (Service.rewritings o2)))

let service_stats_consistent () =
  let s = service () in
  let queries =
    [ Car_loc_part.query; Car_loc_part.query; Example_4_1.query ]
  in
  List.iter (fun query -> ignore (Service.rewrite s query)) queries;
  let st = Service.stats s in
  check_int "requests" 3 st.Service.requests;
  check_int "identity: hits+misses+bypasses" st.Service.requests
    (st.Service.hits + st.Service.misses + st.Service.bypasses);
  check_int "one hit" 1 st.Service.hits;
  check_int "latency count" 3 st.Service.latency.Service.count

(* Lifetime counters survive a catalog swap; only the generation-resets
   counter records it (regression: they used to be conflated with the
   per-catalog state). *)
let service_stats_survive_catalog_swap () =
  let s = service () in
  ignore (Service.rewrite s Car_loc_part.query);
  ignore (Service.rewrite s Car_loc_part.query);
  let before = Service.stats s in
  check_int "no resets yet" 0 before.Service.generation_resets;
  Service.set_catalog s (Catalog.create_exn Car_loc_part.views);
  let after = Service.stats s in
  check_int "requests survive" before.Service.requests after.Service.requests;
  check_int "hits survive" before.Service.hits after.Service.hits;
  check_int "misses survive" before.Service.misses after.Service.misses;
  check_int "latency count survives" before.Service.latency.Service.count
    after.Service.latency.Service.count;
  check_int "one reset recorded" 1 after.Service.generation_resets;
  Service.set_catalog s (Catalog.create_exn Car_loc_part.views);
  check_int "resets accumulate" 2 (Service.stats s).Service.generation_resets

(* A cache hit (alpha-renamed, permuted resubmission) returns a rewriting
   set equal, up to renaming, to a fresh Corecover run on the resubmitted
   query.  "Up to renaming" is per-rewriting isomorphism; the sets are
   compared as multisets. *)
let same_up_to_iso ps qs =
  let rec consume remaining = function
    | [] -> remaining = []
    | p :: rest -> (
        match List.partition (fun p' -> Containment.isomorphic p p') remaining with
        | _ :: dups, others -> consume (dups @ others) rest
        | [], _ -> false)
  in
  List.length ps = List.length qs && consume qs ps

let service_hit_vs_fresh_qcheck =
  let gen = Gen.pair Qcheck_gens.gen_query (Qcheck_gens.gen_views ~max_views:3 ~max_atoms:2) in
  make_qcheck ~count:100 ~name:"cache hit = fresh Corecover up to renaming" gen
    Qcheck_gens.print_instance (fun (query, views) ->
      let s = Service.create (Catalog.create_exn views) in
      let o1 = Service.rewrite s query in
      let vars = Query.vars query in
      let sigma =
        Subst.of_list (List.mapi (fun i x -> (x, Term.Var ("Y" ^ string_of_int i))) vars)
      in
      let renamed = Query.apply sigma query in
      let variant = Query.make_exn renamed.Query.head (List.rev renamed.Query.body) in
      let o2 = Service.rewrite s variant in
      let fresh = Corecover.gmrs ~query:variant ~views () in
      o1.Service.source = Service.Miss
      && o2.Service.source = Service.Hit
      && same_up_to_iso (Service.rewritings o2) fresh.Corecover.rewritings)

(* The reply path: a rewrite served as a hit through [Protocol] renders
   the same bytes as a cold service's miss on the same request, and those
   lines are Corecover's GMRs of the request (bodies and lines sorted: a
   hit keeps the canonical run's order).  [Service.rewritings] parses
   back to the rendered lines. *)
let rewrite_reply shared sess query =
  let text =
    (Protocol.handle_lines shared sess [ "rewrite " ^ Query.to_string query ^ "." ])
      .Protocol.text
  in
  match String.index_opt text '\n' with
  | Some i -> (String.sub text 0 i, String.sub text (i + 1) (String.length text - i - 1))
  | None -> (text, "")

let sorted_lines queries =
  List.sort String.compare
    (List.map
       (fun (p : Query.t) ->
         Query.to_string
           (Query.make_exn p.Query.head (List.sort Atom.compare p.Query.body)))
       queries)

let hit_reply_equals_cold_miss_qcheck =
  let gen =
    Gen.triple Qcheck_gens.gen_query
      (Qcheck_gens.gen_views ~max_views:3 ~max_atoms:2)
      (Gen.pair (Gen.shuffle_l [ 0; 1; 2; 3 ]) Gen.bool)
  in
  let print (query, views, _) = Qcheck_gens.print_instance (query, views) in
  make_qcheck ~count:100 ~name:"hit reply = cold miss reply = Corecover" gen print
    (fun (query, views, (perm, reverse)) ->
      (* a random isomorphic variant: fresh names assigned by a random
         permutation (queries have at most four variables), body order
         possibly reversed *)
      let vars = Query.vars query in
      let sigma =
        Subst.of_list
          (List.mapi (fun i x -> (x, Term.Var ("Y" ^ string_of_int (List.nth perm i)))) vars)
      in
      let renamed = Query.apply sigma query in
      let variant =
        Query.make_exn renamed.Query.head
          (if reverse then List.rev renamed.Query.body else renamed.Query.body)
      in
      let server () =
        let shared = Protocol.create_shared () in
        Protocol.install_catalog shared (Catalog.create_exn views);
        (shared, Protocol.new_session shared)
      in
      let warm, wsess = server () and cold, csess = server () in
      let _ = rewrite_reply warm wsess query in
      let hit_head, hit_lines = rewrite_reply warm wsess variant in
      let miss_head, miss_lines = rewrite_reply cold csess variant in
      (* "ok N SOURCE trace=ID" *)
      let field i head = List.nth (String.split_on_char ' ' head) i in
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' hit_lines) in
      let parsed = List.map (fun l -> Parser.parse_rule_exn (l ^ ".")) lines in
      let svc = Option.get (Protocol.service warm) in
      let o = Service.rewrite svc variant in
      let fresh = Corecover.gmrs ~query:variant ~views () in
      field 2 hit_head = "hit"
      && field 2 miss_head = "miss"
      && field 1 hit_head = field 1 miss_head
      && String.equal hit_lines miss_lines
      && sorted_lines parsed = sorted_lines fresh.Corecover.rewritings
      && List.equal Query.equal parsed (Service.rewritings o))

(* A query whose canonicalization blows its cap is served as a bypass:
   its rewritings still render in the caller's own variables, exactly as
   Corecover returns them for the query as written. *)
let bypass_renders_caller_variables () =
  let views = qs [ "v(A, B) :- e(A, B)." ] in
  (* 25 existential variables: more than the canonical labeling takes *)
  let query =
    Query.make_exn
      (Atom.make "q" [ Term.Var "X" ])
      (List.init 25 (fun i -> Atom.make "e" [ Term.Var "X"; Term.Var ("W" ^ string_of_int i) ]))
  in
  check_bool "uncanonicalizable" true (Normalize.canonicalize query = None);
  let s = Service.create (Catalog.create_exn views) in
  let o = Service.rewrite s query in
  check_bool "bypass" true (o.Service.source = Service.Bypass);
  let buf = Buffer.create 64 in
  Service.render_rewritings buf o;
  let direct = Corecover.gmrs ~query ~views () in
  Alcotest.(check string)
    "rendered = Corecover on the query as written"
    (String.concat "" (List.map (fun p -> Query.to_string p ^ "\n") direct.Corecover.rewritings))
    (Buffer.contents buf);
  check_bool "one rewriting" true (Service.num_rewritings o = 1);
  let caller = Names.sset_of_list (Query.vars query) in
  List.iter
    (fun p ->
      check_bool "in the caller's variables" true
        (List.for_all (fun x -> Names.Sset.mem x caller) (Query.vars p)))
    (Service.rewritings o);
  check_bool "never cached" true ((Service.rewrite s query).Service.source = Service.Bypass)

(* ------------------------------------------------------------------ *)
(* Planning in canonical variables                                     *)

(* A three-relation chain with one- and two-relation views: the
   candidates share atom sets, and the chosen plan joins two views. *)
let chain_views =
  qs
    [
      "va(A, B) :- a(A, B).";
      "vb(A, B) :- b(A, B).";
      "vc(A, B) :- c(A, B).";
      "vab(A, B, C) :- a(A, B), b(B, C).";
      "vbc(A, B, C) :- b(A, B), c(B, C).";
    ]

let chain_base =
  let pairs p l = List.map (fun (x, y) -> (p, [ Term.Int x; Term.Int y ])) l in
  Database.of_facts
    (pairs "a" [ (1, 2); (2, 3); (3, 3); (1, 3); (4, 2) ]
    @ pairs "b" [ (2, 5); (3, 5); (3, 6); (7, 8) ]
    @ pairs "c" [ (5, 7); (6, 8); (6, 9); (9, 9) ])

(* A renamed, body-permuted variant of a planned query is planned from
   the subplan memo alone: it adds no memo miss, costs the same, and gets
   the same rewriting and join order in its own variables. *)
let plan_renamed_variant_is_memo_hit () =
  let s = Service.create (Catalog.create_exn chain_views) in
  Service.set_base s chain_base;
  let query = q "q(X, W) :- a(X, Y), b(Y, Z), c(Z, W)." in
  let variant = q "q(P, R) :- c(T, R), a(P, S), b(S, T)." in
  let sigma =
    Subst.of_list
      [ ("X", Term.Var "P"); ("Y", Term.Var "S"); ("Z", Term.Var "T"); ("W", Term.Var "R") ]
  in
  let plan query =
    match Service.plan s query with
    | Some o -> o
    | None -> Alcotest.fail "no plan"
  in
  let misses () =
    match Service.subplan_counters s with
    | Some c -> c.Subplan.misses
    | None -> Alcotest.fail "no plan context"
  in
  let first = plan query in
  check_bool "the plan joins views" true
    (List.length first.Service.plan_order >= 2);
  let before = misses () in
  let second = plan variant in
  check_int "no new memo misses" before (misses ());
  check_bool "same cost" true (first.Service.plan_cost = second.Service.plan_cost);
  check_query "rewriting in the variant's variables"
    (Query.apply sigma first.Service.plan_rewriting)
    second.Service.plan_rewriting;
  check_bool "order in the variant's variables" true
    (List.equal Atom.equal
       (List.map (Atom.apply sigma) first.Service.plan_order)
       second.Service.plan_order);
  let answers query =
    match Service.analyze s query with
    | Some a -> a.Service.an_answers
    | None -> Alcotest.fail "no analyze"
  in
  let want = Relation.cardinality (Eval.answers chain_base query) in
  check_int "analyze answers" want (answers query);
  check_int "analyze of the variant answers the same" want (answers variant)

(* ------------------------------------------------------------------ *)
(* Concurrent dispatch                                                 *)

(* Planning before any base is loaded is a typed input error: not a
   budget error, so a caller must load data rather than retry. *)
let plan_without_base () =
  let s = service () in
  let query = Car_loc_part.query in
  List.iter
    (fun (what, request) ->
      match request () with
      | () -> Alcotest.failf "%s without a base database did not raise" what
      | exception Vplan_error.Error (Vplan_error.No_base_database as e) ->
          check_bool "not a resource error" false (Vplan_error.is_resource e);
          Alcotest.(check string)
            "message" "no base database loaded (use: data load FILE)"
            (Vplan_error.to_string e))
    [
      ("plan", fun () -> ignore (Service.plan s query));
      ("analyze", fun () -> ignore (Service.analyze s query));
    ]

let stress_concurrent_vs_sequential () =
  (* a workload with repeats and alpha-variants against one shared
     catalog: the pool must produce exactly the sequential answers *)
  let variants =
    [
      Car_loc_part.query;
      q "q1(P, K) :- part(P, N, K), loc(anderson, K), car(N, anderson).";
      Example_4_1.query;
      q "q(U, V) :- b(W, V), a(U, W), a(W, W).";
    ]
  in
  let workload = List.concat (List.init 4 (fun _ -> variants)) in
  let sequential =
    let s = service () in
    List.map (fun query -> Service.rewrite s query) workload
  in
  let concurrent =
    let s = service () in
    Service.rewrite_batch ~domains:4 s workload
  in
  List.iter2
    (fun (a : Service.outcome) (b : Service.outcome) ->
      check_bool "same rewritings under concurrency" true
        (List.for_all2 Query.equal (Service.rewritings a) (Service.rewritings b));
      check_bool "same completeness" true
        (a.Service.completeness = b.Service.completeness))
    sequential concurrent;
  let s = service () in
  let (_ : Service.outcome list) = Service.rewrite_batch ~domains:4 s workload in
  let st = Service.stats s in
  check_int "every request accounted" (List.length workload) st.Service.requests;
  check_int "identity holds under concurrency" st.Service.requests
    (st.Service.hits + st.Service.misses + st.Service.bypasses)

let suite =
  [
    Alcotest.test_case "canonical key: permuted Example 4.1" `Quick
      canonical_key_permuted_example41;
    Alcotest.test_case "canonical key separates queries" `Quick canonical_key_separates;
    Alcotest.test_case "canonicalize: sigma witnesses isomorphism" `Quick
      canonicalize_sigma_witnesses;
    canonical_key_qcheck;
    Alcotest.test_case "lru: eviction order and counters" `Quick lru_eviction;
    Alcotest.test_case "lru: replace is not eviction" `Quick lru_replace_is_not_eviction;
    Alcotest.test_case "catalog: incremental add = from scratch" `Quick
      catalog_incremental_add;
    Alcotest.test_case "catalog: remove and errors" `Quick catalog_remove;
    Alcotest.test_case "catalog classes drive corecover" `Quick
      catalog_classes_drive_corecover;
    Alcotest.test_case "service: hit is observationally identical" `Quick
      service_hit_identical;
    Alcotest.test_case "service: hit renames into caller variables" `Quick
      service_hit_renames_back;
    Alcotest.test_case "service: truncated results are never cached" `Quick
      service_truncated_not_cached;
    Alcotest.test_case "service: catalog swap invalidates cache" `Quick
      service_generation_invalidates;
    Alcotest.test_case "service: stats identity" `Quick service_stats_consistent;
    Alcotest.test_case "service: stats survive catalog swap" `Quick
      service_stats_survive_catalog_swap;
    service_hit_vs_fresh_qcheck;
    hit_reply_equals_cold_miss_qcheck;
    Alcotest.test_case "service: bypass renders in caller variables" `Quick
      bypass_renders_caller_variables;
    Alcotest.test_case "plan: renamed variant is a memo hit" `Quick
      plan_renamed_variant_is_memo_hit;
    Alcotest.test_case "plan: no base database is a typed error" `Quick
      plan_without_base;
    Alcotest.test_case "service: concurrent = sequential" `Quick
      stress_concurrent_vs_sequential;
  ]
