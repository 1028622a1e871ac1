(* The three workloads: what each loads, how its server is set up, its
   correctness gates and its end-to-end metrics. *)

open Vplan

type spec = {
  name : string;
  views : Query.t list;
  base : Database.t option;  (** base data loaded at setup, if any *)
  journaled : bool;  (** attach a journaling data dir (fsync before ack) *)
  warm : string list;  (** setup's first-plan requests, after the loads *)
  setup_reps : int;  (** setups per run; [setup_s] is their median *)
  conns : int;  (** closed-loop connections *)
  warmup : int;  (** requests sent, untimed, between setup and the timed phase *)
  stream : int -> unit -> Inputs.request;  (** connection id -> its requests *)
}

let names = [ "rewrite-serve"; "plan-analyze"; "catalog-churn" ]

(* At most [nproc] connections, and two on the reference machine. *)
let nconns = max 1 (min 2 (Domain.recommended_domain_count ()))

let make ~seed = function
  | "rewrite-serve" ->
      Some
        {
          name = "rewrite-serve";
          views = Inputs.rewrite_catalog ~seed;
          base = None;
          journaled = false;
          warm = [];
          setup_reps = 9;
          conns = nconns;
          warmup = 0;
          stream = (fun conn -> Inputs.rewrite_serve_stream ~seed ~conn ~nconns);
        }
  | "plan-analyze" ->
      let stream = Inputs.plan_analyze_stream ~seed in
      (* 3x10^4 rows per relation, not 10^5: at 10^5 a run holds one or
         two requests per shape and type, and their medians swung by a
         quarter from run to run.  One connection: two concurrent
         seconds-long requests on two cores made every latency depend
         on which pair overlapped.  One untimed cycle first, so the
         timed phase sees the warm subplan memo a serving planner has.
         Setup ends with the views materialized and the estimation
         catalog built by the cheapest shape's first plans. *)
      let first = Inputs.rule_line "plan" (List.assoc "chain2" Inputs.plan_shapes) in
      Some
        {
          name = "plan-analyze";
          views = Inputs.path_views;
          base = Some (Inputs.base_db ~seed ~relations:6 ~rows:30_000);
          journaled = false;
          warm = [ first; "set cost-mode estimated"; first ];
          setup_reps = 5;
          conns = 1;
          warmup = Inputs.plan_cycle;
          stream = (fun _ -> stream);
        }
  | "catalog-churn" ->
      Some
        {
          name = "catalog-churn";
          views = Inputs.rewrite_catalog ~seed;
          base = Some (Inputs.base_db ~seed ~relations:8 ~rows:1250);
          journaled = true;
          warm =
            [
              "set cost-mode estimated";
              "plan q(C, X0, X1, X2, X3) :- r0(C, X0), r1(C, X1), r2(C, X2), r3(C, X3).";
            ];
          setup_reps = 9;
          conns = nconns;
          warmup = 0;
          stream = (fun conn -> Inputs.churn_stream ~seed ~conn ~nconns);
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Inputs on disk and server setup. *)

type env = {
  dir : string;  (** this run's input and data directory, inside the checkout *)
  catalog_file : string;
  facts_file : string option;
  facts : string option;  (** the facts text, kept for the layer probes *)
}

let prepare spec ~dir =
  Util.mkdir_p dir;
  let catalog_file = Filename.concat dir "catalog.dl" in
  Util.write_file catalog_file (Inputs.catalog_text spec.views);
  let facts = Option.map Inputs.facts_text spec.base in
  let facts_file =
    Option.map
      (fun text ->
        let f = Filename.concat dir "facts.dl" in
        Util.write_file f text;
        f)
      facts
  in
  { dir; catalog_file; facts_file; facts }

let store_exn what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "perfbench: %s: %s" what e)

let expect_ok c line =
  let reply = Harness.ask c line in
  if not (String.starts_with ~prefix:"ok" reply) then
    failwith (Printf.sprintf "perfbench: setup request %S failed: %s" line (Harness.first_line reply))

type live = {
  server : Harness.server;
  store : Store.t option;
  data_dir : string;
  setup_s : float;
}

(* Server start to ready: (store open,) catalog load, data load and
   the first plans.  Writing the input files is input generation and
   happens before. *)
let setup spec env ~rep =
  let data_dir = Filename.concat env.dir (Printf.sprintf "data%d" rep) in
  let t0 = Util.now () in
  let store =
    if spec.journaled then Some (fst (store_exn "open" (Store.open_dir data_dir))) else None
  in
  let server = Harness.start ?store () in
  let c = Harness.connect ~port:server.Harness.port 0 in
  expect_ok c ("catalog load " ^ env.catalog_file);
  Option.iter (fun f -> expect_ok c ("data load " ^ f)) env.facts_file;
  List.iter (expect_ok c) spec.warm;
  let setup_s = Util.now () -. t0 in
  Harness.close c;
  { server; store; data_dir; setup_s }

let shutdown l =
  Harness.stop l.server;
  Option.iter Store.close l.store

let live_catalog l =
  match Protocol.service l.server.Harness.shared with
  | Some s -> Service.catalog s
  | None -> failwith "perfbench: no catalog installed"

(* ------------------------------------------------------------------ *)
(* Reply classification. *)

(* [ok N hit|miss|bypass trace=T] *)
let rewrite_reply head =
  match String.split_on_char ' ' head with
  | "ok" :: n :: source :: _ -> Option.map (fun n -> (n, source)) (int_of_string_opt n)
  | _ -> None

let req_type (s : Harness.sample) =
  match s.Harness.req.Inputs.kind with
  | Inputs.Rewrite -> (
      match rewrite_reply s.Harness.head with
      | Some (_, source) -> "rewrite_" ^ source
      | None -> "rewrite_err")
  | Inputs.Plan_exact -> "plan_exact"
  | Inputs.Plan_estimated -> "plan_estimated"
  | Inputs.Analyze -> "analyze"
  | Inputs.Add_view | Inputs.Remove_view -> "mutation"

let ok (s : Harness.sample) = String.starts_with ~prefix:"ok" s.Harness.head

(* ------------------------------------------------------------------ *)
(* Correctness gates.  Each returns how many things it checked and a
   description of every failure. *)

type gate = { gate : string; checked : int; failures : string list }

(* Rewritings compared as a sorted list, each with its body sorted:
   the service renames the canonical query's result back, so the body
   order of a rewriting is not part of the answer. *)
let normalized rewritings =
  List.sort compare
    (List.map
       (fun (q : Query.t) ->
         Query.to_string (Query.make_exn q.Query.head (List.sort Atom.compare q.Query.body)))
       rewritings)

(* The rewritings of a rewrite reply; [None] if a line does not parse. *)
let reply_rewritings text =
  match String.split_on_char '\n' text with
  | [] -> None
  | _ :: lines ->
      List.fold_right
        (fun line acc ->
          match (acc, Parser.parse_rule (line ^ ".")) with
          | Some qs, Ok q -> Some (q :: qs)
          | _ -> None)
        (List.filter (fun l -> l <> "") lines)
        (Some [])

(* rewrite-serve: a hit returns as many rewritings as its form's first
   reply (its miss) did, and sampled replies equal a direct CoreCover
   run against the live catalog. *)
let rewrite_gates ~cat samples =
  let first = Hashtbl.create 1024 in
  let count_fail = ref [] and counted = ref 0 in
  List.iter
    (fun (s : Harness.sample) ->
      match (s.Harness.req.Inputs.kind, rewrite_reply s.Harness.head) with
      | Inputs.Rewrite, Some (n, _) -> (
          let form = s.Harness.req.Inputs.form in
          incr counted;
          match Hashtbl.find_opt first form with
          | None -> Hashtbl.add first form n
          | Some m when m = n -> ()
          | Some m ->
              count_fail :=
                Printf.sprintf "form %d: %d rewritings, first reply had %d" form n m :: !count_fail)
      | _ -> ())
    samples;
  let sample_fail = ref [] and sampled = ref 0 in
  List.iter
    (fun (s : Harness.sample) ->
      match (s.Harness.full, s.Harness.req.Inputs.query) with
      | Some text, Some query when ok s ->
          incr sampled;
          let direct =
            Corecover.gmrs ~view_classes:(Catalog.view_classes cat) ~query
              ~views:(Catalog.views cat) ()
          in
          if
            Option.map normalized (reply_rewritings text)
            <> Some (normalized direct.Corecover.rewritings)
          then
            sample_fail :=
              Printf.sprintf "reply to %S differs from a direct CoreCover run"
                s.Harness.req.Inputs.line
              :: !sample_fail
      | _ -> ())
    samples;
  [
    { gate = "hit_count_equals_miss"; checked = !counted; failures = List.rev !count_fail };
    { gate = "sample_equals_corecover"; checked = !sampled; failures = List.rev !sample_fail };
  ]

(* plan-analyze: every analyze answer count equals the answer count of
   the query over the base data, and every exact-mode cost of one shape
   is the same. *)
let expected_answers spec =
  match spec.base with
  | None -> []
  | Some db ->
      let idb = Indexed_db.of_database db in
      List.map
        (fun (shape, q) -> (shape, Relation.cardinality (Indexed_db.answers idb q)))
        Inputs.plan_shapes

let plan_gates ~expected samples =
  let answers_fail = ref [] and analyzed = ref 0 in
  let costs = Hashtbl.create 8 and cost_fail = ref [] and costed = ref 0 in
  List.iter
    (fun (s : Harness.sample) ->
      let shape = s.Harness.req.Inputs.shape in
      (match (s.Harness.req.Inputs.kind, Util.int_field s.Harness.head "answers") with
      | Inputs.Analyze, Some n ->
          incr analyzed;
          let want = List.assoc shape expected in
          if n <> want then
            answers_fail :=
              Printf.sprintf "%s: analyze answered %d rows, the base data gives %d" shape n want
              :: !answers_fail
      | Inputs.Analyze, None ->
          answers_fail := Printf.sprintf "%s: no answer count in %S" shape s.Harness.head :: !answers_fail
      | _ -> ());
      match (s.Harness.req.Inputs.kind, Util.int_field s.Harness.head "cost") with
      | (Inputs.Plan_exact | Inputs.Analyze), Some c -> (
          incr costed;
          match Hashtbl.find_opt costs shape with
          | None -> Hashtbl.add costs shape c
          | Some c0 when c0 = c -> ()
          | Some c0 ->
              cost_fail := Printf.sprintf "%s: exact cost %d, earlier %d" shape c c0 :: !cost_fail)
      | _ -> ())
    samples;
  [
    { gate = "analyze_answers_equal_base"; checked = !analyzed; failures = List.rev !answers_fail };
    { gate = "exact_cost_repeats"; checked = !costed; failures = List.rev !cost_fail };
  ]

(* ------------------------------------------------------------------ *)
(* catalog-churn: restart from the data dir. *)

let catalog_snapshot cat =
  (Catalog.generation cat, List.map Persist.render_view (Catalog.views cat))

(* Compact the live state into a snapshot, then journal the fixed tail
   of mutations, each acked before the next is sent.  Returns them as
   samples, for the recovery gate. *)
let journal_tail l ~seed =
  let c = Harness.connect ~port:l.server.Harness.port 0 in
  Fun.protect ~finally:(fun () -> Harness.close c) @@ fun () ->
  expect_ok c "save";
  List.mapi
    (fun seq (req : Inputs.request) ->
      let t_send = Util.now () in
      let reply = Harness.ask c req.Inputs.line in
      {
        Harness.req;
        conn_id = -1;
        seq;
        t_send;
        t_done = Util.now ();
        head = Harness.first_line reply;
        bytes = String.length reply;
        full = None;
        times = None;
      })
    (Inputs.journal_tail ~seed ~count:1000)

(* Store.open_dir, journal replay onto the snapshot, boot, first request
   served — the server binary's boot sequence.  Returns the recovered
   server with its store, and the times of the first two steps. *)
let restart ~data_dir ~first_request =
  let t0 = Util.now () in
  let (st, r), open_ms, open_words =
    Util.measure (fun () -> store_exn "reopen" (Store.open_dir data_dir))
  in
  let t_replay = Util.now () in
  let (cat, base, stats), replay_ms, replay_words =
    Util.measure (fun () ->
        let cat, base, stats =
          match r.Store.r_snapshot with
          | None -> (None, None, None)
          | Some snap ->
              let cat, base, stats = store_exn "snapshot" (Persist.state_of_snapshot snap) in
              (Some cat, base, stats)
        in
        let cat, base, _ = store_exn "replay" (Persist.replay (cat, base) r.Store.r_replayed) in
        (* snapshot statistics describe the snapshot's own base; a
           journaled data load replaced it *)
        let reloaded =
          List.exists (function _, Record.Load_data _ -> true | _ -> false) r.Store.r_replayed
        in
        (cat, base, if reloaded then None else stats))
  in
  let init shared =
    Option.iter
      (fun cat ->
        Protocol.install_catalog shared cat;
        match (Protocol.service shared, base) with
        | Some s, Some db -> Service.set_base ?stats s db
        | _ -> ())
      cat
  in
  let server = Harness.start ~store:st ~init () in
  let c = Harness.connect ~port:server.Harness.port 0 in
  expect_ok c first_request;
  Harness.close c;
  ( { server; store = Some st; data_dir; setup_s = 0. },
    [
      ("store.open", t0, open_ms, open_words); ("persist.replay", t_replay, replay_ms, replay_words);
    ] )

(* After the restart the recovered catalog must hold every acked
   mutation: the same views in the same order and the same generation
   as the live catalog, and exactly the views the client's acked adds
   and removes leave. *)
let recovery_gate ~initial ~live ~recovered ~tail samples =
  let expected = Hashtbl.create 1024 in
  List.iter (fun q -> Hashtbl.replace expected (View.name q) ()) initial;
  List.iter
    (fun (s : Harness.sample) ->
      if ok s then
        match s.Harness.req.Inputs.kind with
        | Inputs.Add_view -> Hashtbl.replace expected s.Harness.req.Inputs.shape ()
        | Inputs.Remove_view -> Hashtbl.remove expected s.Harness.req.Inputs.shape
        | _ -> ())
    (samples @ tail);
  let gen_l, views_l = catalog_snapshot live and gen_r, views_r = catalog_snapshot recovered in
  let names = List.map View.name (Catalog.views recovered) in
  let failures =
    (if gen_l <> gen_r then
       [ Printf.sprintf "recovered generation %d, live %d" gen_r gen_l ]
     else [])
    @ (if views_l <> views_r then [ "recovered views differ from the live catalog" ] else [])
    @ (if
         List.length names <> Hashtbl.length expected
         || not (List.for_all (Hashtbl.mem expected) names)
       then [ "recovered views differ from the acked mutations" ]
       else [])
    @ List.filter_map
        (fun (s : Harness.sample) ->
          if ok s then None
          else Some (Printf.sprintf "journal tail %S: %s" s.Harness.req.Inputs.line s.Harness.head))
        tail
  in
  { gate = "recovered_equals_acked"; checked = 1; failures }

(* ------------------------------------------------------------------ *)
(* End-to-end metrics. *)

let latencies pred samples =
  List.filter_map
    (fun (s : Harness.sample) -> if ok s && pred s then Some (Harness.latency_ms s) else None)
    samples

(* plan-analyze's fixed shapes differ tenfold in cost and a run holds
   only a few cycles over them, so a plain median would jump with the
   share of each shape that fits in the run; its per-type medians give
   each shape equal weight — the median of the per-shape medians. *)
let balanced_median samples t =
  let shapes = List.sort_uniq compare (List.map fst Inputs.plan_shapes) in
  Util.median
    (List.filter_map
       (fun shape ->
         match latencies (fun s -> req_type s = t && s.Harness.req.Inputs.shape = shape) samples with
         | [] -> None
         | l -> Some (Util.median l))
       shapes)

(* The request types whose latencies make up a workload's
   [latency_p50_ms]: the ones it is built to load. *)
let latency_types = function
  | "rewrite-serve" -> [ "rewrite_miss"; "rewrite_hit" ]
  | "plan-analyze" -> [ "plan_exact"; "plan_estimated"; "analyze" ]
  | _ -> [ "rewrite_miss"; "plan_estimated"; "mutation" ]

(* A p90 is reported only with at least [min_p90] samples of its
   request type in the run. *)
let min_p90 = 100

(* Each latency type's client-observed p50 and, where the run holds
   enough samples, p90, in ms. *)
let type_latencies spec samples =
  List.map
    (fun t ->
      let l = latencies (fun s -> req_type s = t) samples in
      let p50 = if spec.name = "plan-analyze" then balanced_median samples t else Util.median l in
      (t, p50, if List.length l >= min_p90 then Some (Util.quantile 0.9 l) else None))
    (latency_types spec.name)

(* Every workload reports the same metrics.  [latency_p50_ms] is the
   geometric mean of its latency types' medians: each type weighs the
   same however often it is sent, and a type made k times faster moves
   it by the n-th root of k.  The per-type figures are in the run
   summary. *)
let end_to_end spec samples ~elapsed ~setup_s =
  let p50s = List.map (fun (_, p50, _) -> p50) (type_latencies spec samples) in
  let oks = List.length (List.filter ok samples) in
  [
    ("setup_s", setup_s, "s");
    ("throughput_rps", float_of_int oks /. elapsed, "1/s");
    ("peak_rss_mb", Util.peak_rss_mb (), "MB");
    ("latency_p50_ms", Util.geomean p50s, "ms");
  ]

(* Shares of the properties later claims may depend on. *)
let properties samples =
  let n = List.length samples in
  let share pred =
    if n = 0 then 0. else float_of_int (List.length (List.filter pred samples)) /. float_of_int n
  in
  let rewrites =
    List.filter_map
      (fun (s : Harness.sample) ->
        if s.Harness.req.Inputs.kind = Inputs.Rewrite then rewrite_reply s.Harness.head else None)
      samples
  in
  let hits = List.length (List.filter (fun (_, src) -> src = "hit") rewrites) in
  let probed = List.length (List.filter (fun (_, src) -> src = "hit" || src = "miss") rewrites) in
  let with_query = List.filter (fun (s : Harness.sample) -> s.Harness.req.Inputs.query <> None) samples in
  let acyclic =
    List.length
      (List.filter
         (fun (s : Harness.sample) ->
           match s.Harness.req.Inputs.query with
           | Some q -> Hypergraph.is_acyclic q.Query.body
           | None -> false)
         with_query)
  in
  let ratio a b = if b = 0 then Float.nan else float_of_int a /. float_of_int b in
  [
    ("cache.hit_ratio", Util.Num (ratio hits probed));
    ("acyclic_share", Util.Num (ratio acyclic (List.length with_query)));
    ( "mutation_share",
      Util.Num
        (share (fun s ->
             match s.Harness.req.Inputs.kind with
             | Inputs.Add_view | Inputs.Remove_view -> true
             | _ -> false)) );
    ( "rewritings_per_reply",
      Util.Num (Util.mean (List.map (fun (k, _) -> float_of_int k) rewrites)) );
    ( "bytes_per_reply",
      Util.Num (Util.mean (List.map (fun (s : Harness.sample) -> float_of_int s.Harness.bytes) samples)) );
  ]
