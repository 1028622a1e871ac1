(* Regenerates the tables and figures of the paper's evaluation
   (Section 7) and the worked cost-model examples, plus two ablations and
   a few extensions.  The end-to-end systems benchmark is perfbench/
   (python3 perfbench/run.py); the correctness gates that once rode on
   this harness run as [dune build @gates] (test/gates/gates.ml).

   Usage:
     dune exec bench/main.exe                 # everything, quick settings
     dune exec bench/main.exe -- all --full   # paper-scale settings
     dune exec bench/main.exe -- fig6a fig7   # selected experiments

   Experiments (see DESIGN.md for the per-experiment index):
     table2    Table 2: tuple-cores of Example 4.1
     fig6a/b   star queries: time to generate all GMRs vs #views
     fig7      star queries: equivalence classes of views / view tuples
     fig8a/b   chain queries: time to generate all GMRs vs #views
     fig9      chain queries: equivalence classes
     example42 CoreCover vs MiniCon vs bucket on Example 4.2
     example61 cost model M3 on Example 6.1 / Figure 5
     ablation  equivalence-class grouping on/off
     joinorder M2 join-ordering: DP vs connected-DP vs exhaustive
     shapes    CoreCover across star/chain/cycle/clique workloads
     endpoints the paper's chain head-policy remark
     openworld certain answers: inverse rules vs MiniCon MCR
     estimate  statistics-based join ordering vs true sizes *)

open Vplan

let now_ms () = Unix.gettimeofday () *. 1000.

let time_ms f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

type settings = {
  view_counts : int list;
  queries_per_point : int;
}

let quick = { view_counts = [ 10; 50; 100; 200; 400; 600; 800; 1000 ]; queries_per_point = 3 }

let full =
  {
    view_counts = [ 10; 50; 100; 200; 300; 400; 500; 600; 700; 800; 900; 1000 ];
    queries_per_point = 40;
  }

let header title = Format.printf "@.== %s ==@." title

(* ------------------------------------------------------------------ *)
(* Figures 6 and 8: time for CoreCover to generate all GMRs.           *)

let time_figure ~shape ~nondistinguished ~settings ~title =
  header title;
  Format.printf "%8s %12s %12s %12s %8s@." "views" "avg-ms" "min-ms" "max-ms" "GMRs";
  List.iter
    (fun num_views ->
      let times = ref [] and gmrs = ref 0 in
      for qi = 0 to settings.queries_per_point - 1 do
        let config =
          {
            Generator.default with
            shape;
            num_views;
            nondistinguished_per_view = nondistinguished;
            seed = 1000 + (qi * 7919) + num_views;
          }
        in
        (* as in the paper, workloads without a rewriting are discarded;
           with few views and hidden variables none may exist at all *)
        match Generator.generate_with_rewriting ~max_attempts:100 config with
        | exception Failure _ -> ()
        | inst ->
            let result, ms =
              time_ms (fun () ->
                  Corecover.gmrs ~query:inst.Generator.query ~views:inst.views ())
            in
            times := ms :: !times;
            gmrs := !gmrs + List.length result.rewritings
      done;
      match !times with
      | [] -> Format.printf "%8d %12s@." num_views "(no rewritable workload)"
      | times ->
          let n = List.length times in
          let avg = List.fold_left ( +. ) 0. times /. float_of_int n in
          let min_t = List.fold_left min infinity times in
          let max_t = List.fold_left max neg_infinity times in
          Format.printf "%8d %12.1f %12.1f %12.1f %8.1f@." num_views avg min_t max_t
            (float_of_int !gmrs /. float_of_int n))
    settings.view_counts

(* ------------------------------------------------------------------ *)
(* Figures 7 and 9: equivalence classes of views and view tuples.      *)

let classes_figure ~shape ~settings ~title =
  header title;
  Format.printf "%8s %8s %14s %12s %14s@." "views" "classes" "view-tuples" "rep-tuples"
    "tuples-all-views";
  List.iter
    (fun num_views ->
      let config =
        { Generator.default with shape; num_views; seed = 4242 + num_views }
      in
      let inst = Generator.generate_with_rewriting ~max_attempts:100 config in
      let r = Corecover.gmrs ~query:inst.Generator.query ~views:inst.views () in
      (* Figure 7(b) plots the number of view tuples over ALL views, next
         to the (nearly constant) representatives; [stats.num_view_tuples]
         counts tuples of the representative views only. *)
      let all_tuples =
        View_tuple.compute ~query:r.minimized_query inst.views
      in
      Format.printf "%8d %8d %14d %12d %14d@." num_views r.stats.num_view_classes
        r.stats.num_view_tuples r.stats.num_representative_tuples
        (List.length all_tuples))
    settings.view_counts

(* ------------------------------------------------------------------ *)
(* Table 2: tuple-cores of Example 4.1.                                *)

let table2 () =
  header "Table 2: tuple-cores of the view tuples in Example 4.1";
  let query = Parser.parse_rule_exn "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)." in
  let views =
    List.map Parser.parse_rule_exn
      [ "v1(A, B) :- a(A, B), a(B, B)."; "v2(C, D) :- a(C, E), b(C, D)." ]
  in
  let r = Corecover.gmrs ~query ~views () in
  Format.printf "%-14s %-30s@." "view tuple" "tuple-core C(tv)";
  List.iter
    (fun (tv, core) ->
      Format.printf "%-14s %-30s@."
        (Atom.to_string tv.View_tuple.atom)
        (String.concat ", " (List.map Atom.to_string core.Tuple_core.subgoals)))
    r.cores;
  Format.printf "GMR: %s@."
    (String.concat " | " (List.map Query.to_string r.rewritings))

(* ------------------------------------------------------------------ *)
(* Example 4.2: CoreCover vs MiniCon vs bucket.                        *)

let example42 () =
  header "Example 4.2: CoreCover vs MiniCon vs bucket (k = 2..6)";
  Format.printf "%4s %14s %14s %12s %14s %14s %14s@." "k" "corecover-ms" "minicon-ms"
    "bucket-ms" "cc-smallest" "mc-smallest" "mc-MCDs";
  List.iter
    (fun k ->
      let pair i = Printf.sprintf "a%d(X, Z%d), b%d(Z%d, Y)" i i i i in
      let body = String.concat ", " (List.init k (fun i -> pair (i + 1))) in
      let query = Parser.parse_rule_exn (Printf.sprintf "q(X, Y) :- %s." body) in
      let views =
        Parser.parse_rule_exn (Printf.sprintf "v(X, Y) :- %s." body)
        :: List.init (k - 1) (fun i ->
               Parser.parse_rule_exn
                 (Printf.sprintf "v%d(X, Y) :- %s." (i + 1) (pair (i + 1))))
      in
      let cc, cc_ms = time_ms (fun () -> Corecover.gmrs ~query ~views ()) in
      let mc, mc_ms = time_ms (fun () -> Minicon.run ~query ~views ()) in
      (* the bucket algorithm's cartesian product explodes around k = 4:
         report the blow-up instead of timing it *)
      let bucket_column =
        match time_ms (fun () -> Bucket.run ~mode:`Equivalent ~query ~views ()) with
        | _, bk_ms -> Printf.sprintf "%12.2f" bk_ms
        | exception Invalid_argument _ -> Printf.sprintf "%12s" "(>1e5 cands)"
      in
      let smallest = function
        | [] -> 0
        | l -> List.fold_left (fun acc (p : Query.t) -> min acc (List.length p.body)) max_int l
      in
      Format.printf "%4d %14.2f %14.2f %s %14d %14d %14d@." k cc_ms mc_ms bucket_column
        (smallest cc.rewritings) (smallest mc.rewritings) (List.length mc.mcds))
    [ 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Example 6.1: cost model M3 on the Figure 5 instance.                *)

let example61 () =
  header "Example 6.1 / Figure 5: M3 costs (cells)";
  let query = Parser.parse_rule_exn "q(A) :- r(A, A), t(A, B), s(B, B)." in
  let views =
    List.map Parser.parse_rule_exn
      [ "v1(A, B) :- r(A, A), s(B, B)."; "v2(A, B) :- t(A, B), s(B, B)." ]
  in
  let p1 = Parser.parse_rule_exn "q(A) :- v1(A, B), v2(A, C)." in
  let p2 = Parser.parse_rule_exn "q(A) :- v1(A, B), v2(A, B)." in
  let base =
    let pairs p l = List.map (fun (x, y) -> (p, [ Term.Int x; Term.Int y ])) l in
    Database.of_facts
      (pairs "r" [ (1, 1) ]
      @ pairs "s" [ (2, 2); (4, 4); (6, 6); (8, 8) ]
      @ pairs "t" [ (1, 2); (3, 4); (5, 6); (7, 8) ])
  in
  let view_db = Materialize.views base views in
  Format.printf "%-24s %-18s %8s@." "plan" "strategy" "cost";
  let report name (p : Query.t) strategy =
    let plan =
      match strategy with
      | `Supplementary -> M3.supplementary ~head:p.head p.body
      | `Heuristic -> M3.heuristic ~views ~query ~head:p.head p.body
    in
    Format.printf "%-24s %-18s %8d@." name
      (match strategy with `Supplementary -> "supplementary" | `Heuristic -> "heuristic")
      (M3.cost_of_plan view_db plan)
  in
  report "P1 = v1(A,B),v2(A,C)" p1 `Supplementary;
  report "P2 = v1(A,B),v2(A,B)" p2 `Supplementary;
  report "P2 = v1(A,B),v2(A,B)" p2 `Heuristic

(* ------------------------------------------------------------------ *)
(* Ablation: equivalence-class grouping on/off.                        *)

let ablation ~settings =
  header "Ablation: CoreCover with and without equivalence-class grouping";
  Format.printf "%8s %8s %16s %16s@." "shape" "views" "grouped-ms" "ungrouped-ms";
  List.iter
    (fun (shape, name) ->
      List.iter
        (fun num_views ->
          let config =
            { Generator.default with shape; num_views; seed = 31 + num_views }
          in
          let inst = Generator.generate_with_rewriting config in
          let query = inst.Generator.query and views = inst.views in
          let _, on_ms = time_ms (fun () -> Corecover.gmrs ~query ~views ()) in
          let _, off_ms =
            time_ms (fun () -> Corecover.gmrs ~group_views:false ~query ~views ())
          in
          Format.printf "%8s %8d %16.1f %16.1f@." name num_views on_ms off_ms)
        (List.filter (fun n -> n <= 400) settings.view_counts))
    [ (Generator.Star, "star"); (Generator.Chain, "chain") ]

(* ------------------------------------------------------------------ *)
(* Join-ordering ablation: DP over subsets vs exhaustive.              *)

let joinorder () =
  header "M2 join ordering: DP over subsets vs connected-DP vs exhaustive";
  Format.printf "%10s %12s %14s %16s %10s %12s@." "subgoals" "dp-ms" "connected-ms"
    "exhaustive-ms" "same-cost" "conn-loss";
  List.iter
    (fun n ->
      (* single-subgoal views force an n-subgoal rewriting; small
         relations keep the cross-product subsets affordable *)
      let config =
        { Generator.default with shape = Generator.Chain; query_subgoals = n;
          num_relations = n; view_subgoals_min = 1; view_subgoals_max = 1;
          num_views = 3 * n; seed = 77 + n }
      in
      let inst = Generator.generate_with_rewriting config in
      let query = inst.Generator.query and views = inst.views in
      let base = Generator.base_database ~tuples:12 ~domain:10 inst in
      let view_db = Materialize.views base views in
      let r = Corecover.gmrs ~query ~views () in
      match r.rewritings with
      | [] -> Format.printf "%10d (no rewriting)@." n
      | p :: _ ->
          let (_, dp_cost), dp_ms = time_ms (fun () -> M2.optimal view_db p.Query.body) in
          let connected, conn_ms =
            time_ms (fun () -> M2.optimal_connected view_db p.Query.body)
          in
          let conn_loss =
            match connected with
            | Some (_, c) -> Printf.sprintf "%10.2fx" (float_of_int c /. float_of_int dp_cost)
            | None -> Printf.sprintf "%10s" "n/a"
          in
          if n <= 6 then begin
            let (_, ex_cost), ex_ms =
              time_ms (fun () -> M2.optimal_exhaustive view_db p.Query.body)
            in
            Format.printf "%10d %12.2f %14.2f %16.2f %10b %s@."
              (List.length p.Query.body) dp_ms conn_ms ex_ms (dp_cost = ex_cost) conn_loss
          end
          else
            Format.printf "%10d %12.2f %14.2f %16s %10s %s@."
              (List.length p.Query.body) dp_ms conn_ms "(skipped)" "-" conn_loss)
    [ 3; 4; 5; 6; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* Extension: all four query shapes side by side.                      *)

let shapes ~settings =
  header "Extension: CoreCover across query shapes (avg ms per query)";
  let shapes =
    [
      (Generator.Star, "star", 8);
      (Generator.Chain, "chain", 8);
      (Generator.Cycle, "cycle", 8);
      (Generator.Clique, "clique", 6);
    ]
  in
  Format.printf "%8s" "views";
  List.iter (fun (_, name, _) -> Format.printf " %10s" name) shapes;
  Format.printf "@.";
  List.iter
    (fun num_views ->
      Format.printf "%8d" num_views;
      List.iter
        (fun (shape, _, query_subgoals) ->
          let total = ref 0. in
          for qi = 0 to settings.queries_per_point - 1 do
            let config =
              { Generator.default with shape; query_subgoals; num_views;
                seed = 60 + (qi * 7919) + num_views }
            in
            match Generator.generate_with_rewriting ~max_attempts:100 config with
            | exception Failure _ -> ()
            | inst ->
                let _, ms =
                  time_ms (fun () ->
                      Corecover.gmrs ~query:inst.Generator.query ~views:inst.views ())
                in
                total := !total +. ms
          done;
          Format.printf " %10.1f" (!total /. float_of_int settings.queries_per_point))
        shapes;
      Format.printf "@.")
    (List.filter (fun n -> n <= 400) settings.view_counts)

(* ------------------------------------------------------------------ *)
(* The paper's chain-head-policy remark: "If we only kept the head and
   tail variables of the chain as the head arguments of the query and
   views, then there are very few rewritings generated."  With contiguous
   segment views the tuple-cores provably coincide under both policies
   (hidden interior variables are existential in the query too), so this
   reproduction finds identical counts; see EXPERIMENTS.md for the
   analysis of the deviation. *)

let endpoints () =
  header "Chain head policy: endpoints-only vs all variables distinguished";
  Format.printf "%8s %22s %22s@." "views" "all-dist (found/GMRs)" "endpoints (found/GMRs)";
  List.iter
    (fun num_views ->
      let attempt ~endpoints seed =
        let config =
          { Generator.default with shape = Generator.Chain; num_views;
            chain_endpoints_only = endpoints; seed }
        in
        let inst = Generator.generate config in
        if Corecover.has_rewriting ~query:inst.Generator.query ~views:inst.views then
          let r = Corecover.gmrs ~query:inst.Generator.query ~views:inst.views () in
          (1, List.length r.rewritings)
        else (0, 0)
      in
      let tally ~endpoints =
        List.fold_left
          (fun (found, gmrs) seed ->
            let f, g = attempt ~endpoints seed in
            (found + f, gmrs + g))
          (0, 0)
          (List.init 10 (fun i -> 300 + (i * 977) + num_views))
      in
      let fa, ga = tally ~endpoints:false in
      let fe, ge = tally ~endpoints:true in
      Format.printf "%8d %14d / %-7d %14d / %-7d@." num_views fa ga fe ge)
    [ 20; 50; 100; 200 ]

(* ------------------------------------------------------------------ *)
(* Extension: plan quality of statistics-based ordering vs true sizes. *)

let estimate () =
  header "Extension: join ordering from statistics vs true sizes (M2 cells)";
  Format.printf "%6s %12s %14s %16s %8s@." "run" "true-opt" "estimated-plan" "quality-loss"
    "subgoals";
  let ratios = ref [] in
  for run = 1 to 10 do
    let config =
      { Generator.default with shape = Generator.Chain; query_subgoals = 5;
        num_relations = 5; view_subgoals_min = 1; view_subgoals_max = 1;
        num_views = 15; seed = 500 + run }
    in
    match Generator.generate_with_rewriting ~max_attempts:100 config with
    | exception Failure _ -> ()
    | inst ->
        let query = inst.Generator.query and views = inst.views in
        (* skewed data: the uniform-assumption estimator actually errs *)
        let base =
          Datagen.for_query_skewed (Prng.create (900 + run)) ~tuples:25 ~domain:12 query
        in
        let view_db = Materialize.views base views in
        let r = Corecover.gmrs ~query ~views () in
        (match r.rewritings with
        | [] -> ()
        | p :: _ ->
            let catalog = Estimate.analyze view_db in
            let est_order, _ = Estimate.optimal catalog p.Query.body in
            let realized = M2.cost_of_order view_db est_order in
            let _, true_opt = M2.optimal view_db p.Query.body in
            let ratio = float_of_int realized /. float_of_int (max 1 true_opt) in
            ratios := ratio :: !ratios;
            Format.printf "%6d %12d %14d %15.2fx %8d@." run true_opt realized ratio
              (List.length p.Query.body))
  done;
  (match !ratios with
  | [] -> ()
  | rs ->
      let avg = List.fold_left ( +. ) 0. rs /. float_of_int (List.length rs) in
      Format.printf "average quality loss: %.2fx over %d runs@." avg (List.length rs))

(* ------------------------------------------------------------------ *)
(* Extension: open-world certain answers, two algorithms.              *)

let openworld () =
  header "Extension: certain answers — inverse rules vs MiniCon MCR";
  Format.printf "%8s %8s %16s %14s %10s %8s@." "views" "tuples" "inverse-ms" "minicon-ms"
    "agree" "answers";
  List.iter
    (fun num_views ->
      (* short chain workload with one hidden variable per view:
         equivalent rewritings usually do not exist, so the open-world
         fallback is exercised for real; a dense little instance keeps
         certain answers nonempty *)
      let config =
        { Generator.default with shape = Generator.Chain; query_subgoals = 3;
          num_relations = 3; num_views; nondistinguished_per_view = 1;
          seed = 9000 + num_views }
      in
      let inst = Generator.generate config in
      let query = inst.Generator.query and views = inst.views in
      let base = Generator.base_database ~tuples:8 ~domain:8 inst in
      let view_db = Materialize.views base views in
      let certain_ir, ir_ms =
        time_ms (fun () -> Inverse_rules.certain_answers ~views ~query view_db)
      in
      let mcr, mc_ms = time_ms (fun () -> Minicon.maximally_contained ~query ~views ()) in
      let certain_mc =
        match mcr with
        | None -> Relation.empty (Relation.arity certain_ir)
        | Some u -> Eval.answers_ucq view_db u
      in
      Format.printf "%8d %8d %16.2f %14.2f %10b %8d@." num_views
        (Database.total_size view_db) ir_ms mc_ms
        (Relation.equal certain_ir certain_mc)
        (Relation.cardinality certain_ir))
    (* MiniCon's combination count — and the UCQ minimization after it —
       explodes combinatorially with the view count, while the
       inverse-rules algorithm stays polynomial in the view instance:
       exactly the trade-off the two papers describe. *)
    [ 5; 10; 20; 40 ]

let experiments settings =
  [
    ("table2", fun () -> table2 ());
    ( "fig6a",
      fun () ->
        time_figure ~shape:Generator.Star ~nondistinguished:0 ~settings
          ~title:"Figure 6(a): star queries, all variables distinguished" );
    ( "fig6b",
      fun () ->
        time_figure ~shape:Generator.Star ~nondistinguished:1 ~settings
          ~title:"Figure 6(b): star queries, 1 variable nondistinguished" );
    ( "fig7",
      fun () ->
        classes_figure ~shape:Generator.Star ~settings
          ~title:"Figure 7: equivalence classes, star queries" );
    ( "fig8a",
      fun () ->
        time_figure ~shape:Generator.Chain ~nondistinguished:0 ~settings
          ~title:"Figure 8(a): chain queries, all variables distinguished" );
    ( "fig8b",
      fun () ->
        time_figure ~shape:Generator.Chain ~nondistinguished:1 ~settings
          ~title:"Figure 8(b): chain queries, 1 variable nondistinguished" );
    ( "fig9",
      fun () ->
        classes_figure ~shape:Generator.Chain ~settings
          ~title:"Figure 9: equivalence classes, chain queries" );
    ("example42", fun () -> example42 ());
    ("example61", fun () -> example61 ());
    ("ablation", fun () -> ablation ~settings);
    ("joinorder", fun () -> joinorder ());
    ("shapes", fun () -> shapes ~settings);
    ("endpoints", fun () -> endpoints ());
    ("openworld", fun () -> openworld ());
    ("estimate", fun () -> estimate ());
  ]

let usage () =
  prerr_endline
    "usage: main.exe [EXPERIMENT...] [--full | --quick | --mode quick|full] [--views N]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let is_full = ref false in
  let max_views = ref None in
  let rec parse wanted = function
    | [] -> List.rev wanted
    | ("--full" | "--quick") as m :: rest ->
        is_full := m = "--full";
        parse wanted rest
    | "--mode" :: (("full" | "quick") as m) :: rest ->
        is_full := m = "full";
        parse wanted rest
    | "--views" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            max_views := Some v;
            parse wanted rest
        | _ -> usage ())
    | a :: _ when String.length a >= 2 && String.sub a 0 2 = "--" -> usage ()
    | a :: rest -> parse (a :: wanted) rest
  in
  let wanted = parse [] args in
  let settings =
    let s = if !is_full then full else quick in
    match !max_views with
    | None -> s
    | Some cap -> { s with view_counts = List.filter (fun n -> n <= cap) s.view_counts }
  in
  let all = experiments settings in
  let to_run =
    match wanted with
    | [] | [ "all" ] -> List.map fst all
    | names -> names
  in
  (* reject a misspelt or retired name before anything runs, so a script
     calling it fails instead of passing on partial output *)
  (match List.filter (fun name -> not (List.mem_assoc name all)) to_run with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown experiment%s %s (known: %s)\n"
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
        (String.concat ", " (List.map fst all));
      exit 2);
  Format.printf "vplan benchmark harness (%s settings)@."
    (if !is_full then "paper-scale" else "quick");
  List.iter (fun name -> (List.assoc name all) ()) to_run
