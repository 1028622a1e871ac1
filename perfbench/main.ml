(* vplan's end-to-end benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Starts one in-process TCP server, sets it up several times from the
   workload's generated catalog and facts, drives it for [S] seconds in
   a closed loop, checks the replies, and prints the workload's
   end-to-end metrics ([--trace 0]) or its per-layer metrics
   ([--trace 1]) as the last line of standard output:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   The lines before it, each starting with "#", give the run header,
   the measured property shares and the gate results.  Files go to
   [.perfbench-out/] in the working directory: a summary and the
   per-request samples of every run and, for traced runs, the
   per-layer rows and the spans. *)

open Vplan

let out_dir = ".perfbench-out"

(* Restarts in a traced run, whose per-step times are medians over
   them; an untraced run restarts once, for the recovery gate.  (The
   restart time itself varied by a quarter and more between runs, so it
   is not an end-to-end metric.) *)
let traced_restarts = 7

(* The per-layer metrics of a traced run's result line: those of the
   layers all three workloads run, so that every workload reports the
   same names.  A workload's other layers (materialize, select,
   estimate, exec, store, replay, ...) are in its .json summary and
   its .layers.tsv. *)
let reported_layer_metrics =
  [
    "net.wait.ms"; "protocol.render.ms"; "reply.bytes"; "parser.rule.ms"; "parser.rule.words";
    "corecover.view_tuples.ms"; "corecover.view_tuples.words"; "corecover.tuple_cores.ms";
    "corecover.tuple_cores.words"; "corecover.set_cover.ms"; "corecover.set_cover.words";
    "corecover.minimize.ms"; "corecover.minimize.words"; "corecover.total.ms";
    "corecover.total.words"; "corecover.view_tuples"; "corecover.rewritings";
    "untraced.throughput_rps"; "traced.throughput_rps"; "trace.overhead_ratio";
  ]

(* The first request a restarted server serves. *)
let first_request = "rewrite q(C, X0, X1) :- r0(C, X0), r1(C, X1)."

let usage () =
  prerr_endline
    ("usage: main.exe --workload " ^ String.concat "|" Workload.names
   ^ " --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (Workload.make ~seed:(Option.value ~default:0 !seed) !workload, !seed, !seconds, !trace) with
  | Some spec, Some seed, Some seconds, Some trace when seconds > 0. -> (spec, seed, seconds, trace)
  | _ -> usage ()

let oks l = List.length (List.filter Workload.ok l)

(* [reps] fresh setups, each measured; the last server stays up
   for the timed phase. *)
let setups spec env ~reps =
  let rec go rep times =
    Gc.full_major ();
    let l = Workload.setup spec env ~rep in
    let times = l.Workload.setup_s :: times in
    if rep + 1 < reps then begin
      Workload.shutdown l;
      go (rep + 1) times
    end
    else (l, times)
  in
  go 0 []

(* catalog-churn's ending: restart from the data dir [restarts] times;
   the first restart's catalog must match the live one. *)
let recover spec ~(live : Workload.live) ~cat ~tail ~restarts samples =
  let rec go k steps gate =
    if k = restarts then (steps, gate)
    else begin
      (* every restart starts from a collected heap, as a fresh process
         would, not from the garbage of the run or the last restart *)
      Gc.full_major ();
      let l, st = Workload.restart ~data_dir:live.Workload.data_dir ~first_request in
      let gate =
        if k = 0 then
          Some
            (Workload.recovery_gate ~initial:spec.Workload.views ~live:cat
               ~recovered:(Workload.live_catalog l) ~tail samples)
        else gate
      in
      Workload.shutdown l;
      go (k + 1) (steps @ st) gate
    end
  in
  go 0 [] None

(* The traced run's per-layer metrics; writes the rows and the spans. *)
let layer_metrics spec env ~stem ~cat ~subplan ~traced ~untraced_rps ~traced_rps ~recovery_steps =
  let p = Layers.create () in
  Layers.in_band p traced;
  Layers.recovery p recovery_steps;
  let pick k = Layers.pick k traced in
  let data () = Layers.data_probes p ~facts:(Option.get env.Workload.facts) in
  (match spec.Workload.name with
  | "rewrite-serve" -> Layers.rewrite_probes p ~cat (pick 20)
  | "plan-analyze" ->
      let db, stats = data () in
      Layers.plan_probes p ~cat ~db ~stats (Layers.pick ~by_shape:true 1 traced)
  | _ ->
      Layers.rewrite_probes p ~cat (pick 20);
      let db, stats = data () in
      Layers.plan_probes p ~cat ~db ~stats (pick 10);
      Layers.mutation_probes p ~cat ~dir:(Filename.concat env.Workload.dir "probe-store") traced);
  let rows, residuals = Layers.rows ~workload:spec.Workload.name p in
  Util.write_file (stem ^ ".layers.tsv") (String.concat "\n" rows ^ "\n");
  Util.write_file (stem ^ ".spans.jsonl") (String.concat "\n" (Layers.spans p) ^ "\n");
  let ratio name = function Util.Num v when Float.is_finite v -> [ (name, v, "ratio") ] | _ -> [] in
  let extra =
    [
      ("untraced.throughput_rps", untraced_rps, "1/s");
      ("traced.throughput_rps", traced_rps, "1/s");
      ("trace.overhead_ratio", (untraced_rps -. traced_rps) /. untraced_rps, "ratio");
      ( "reply.bytes",
        Util.mean (List.map (fun (s : Harness.sample) -> float_of_int s.Harness.bytes) traced),
        "bytes" );
    ]
    @ ratio "cache.hit_ratio" (List.assoc "cache.hit_ratio" (Workload.properties traced))
    @
    match subplan with
    | Some c when c.Subplan.hits + c.Subplan.misses > 0 ->
        ratio "subplan.hit_ratio"
          (Util.Num (float_of_int c.Subplan.hits /. float_of_int (c.Subplan.hits + c.Subplan.misses)))
    | _ -> []
  in
  Layers.metrics p ~residuals ~extra

let metric_json metrics =
  Util.Obj
    (List.filter_map
       (fun (name, v, unit) ->
         if Float.is_finite v then
           Some (name, Util.Obj [ ("value", Util.Num v); ("unit", Util.Str unit) ])
         else begin
           Printf.eprintf "perfbench: metric %s has no value\n%!" name;
           None
         end)
       metrics)

(* The metrics of the result line, in the order of [names]. *)
let select_metrics names metrics =
  List.filter_map
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) metrics with
      | Some m -> Some m
      | None ->
          Printf.eprintf "perfbench: metric %s was not measured\n%!" name;
          None)
    names

(* Each latency type's client p50 and p90, for the run summary. *)
let latency_json spec samples =
  Util.Obj
    (List.map
       (fun (t, p50, p90) ->
         ( t,
           Util.Obj
             (("p50_ms", Util.Num p50)
             :: (match p90 with Some v -> [ ("p90_ms", Util.Num v) ] | None -> [])) ))
       (Workload.type_latencies spec samples))

let header spec ~seed ~seconds ~trace ~reps ~failed samples =
  let count t = List.length (List.filter (fun s -> Workload.req_type s = t) samples) in
  Util.Obj
    [
      ("workload", Util.Str spec.Workload.name);
      ("seed", Util.Int seed);
      ("seconds", Util.Num seconds);
      ("trace", Util.Bool trace);
      ("nproc", Util.Int (Domain.recommended_domain_count ()));
      ("ocaml", Util.Str Sys.ocaml_version);
      ("ocamlrunparam", Util.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
      ("workers", Util.Int Harness.workers);
      ("queue_capacity", Util.Int Harness.queue_capacity);
      ("connections", Util.Int spec.Workload.conns);
      ("loop", Util.Str "closed");
      ("setup_reps", Util.Int reps);
      ("views", Util.Int (List.length spec.Workload.views));
      ( "base_rows",
        Util.Int (match spec.Workload.base with Some db -> Database.total_size db | None -> 0) );
      ( "distinct_forms",
        Util.Int
          (List.length
             (List.sort_uniq compare
                (List.filter_map
                   (fun (s : Harness.sample) -> Option.bind s.Harness.req.Inputs.query Normalize.cache_key)
                   samples))) );
      ("requests", Util.Int (List.length samples));
      ( "requests_by_type",
        Util.Obj
          (List.map
             (fun t -> (t, Util.Int (count t)))
             [
               "rewrite_hit"; "rewrite_miss"; "rewrite_bypass"; "plan_exact"; "plan_estimated";
               "analyze"; "mutation";
             ]) );
      ("error_rate", Util.Num (float_of_int failed /. float_of_int (max 1 (List.length samples))));
    ]

let samples_tsv samples =
  String.concat ""
    ("conn\tsend_s\tlatency_ms\ttype\tshape\tbytes\n"
    :: List.map
         (fun (s : Harness.sample) ->
           Printf.sprintf "%d\t%.6f\t%.4f\t%s\t%s\t%d\n" s.Harness.conn_id s.Harness.t_send
             (Harness.latency_ms s) (Workload.req_type s) s.Harness.req.Inputs.shape s.Harness.bytes)
         samples)

let run spec ~seed ~seconds ~trace =
  let out = Filename.concat (Sys.getcwd ()) out_dir in
  let dir = Filename.concat out (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> Util.rm_rf dir) @@ fun () ->
  let env = Workload.prepare spec ~dir in
  let expected = if spec.Workload.name = "plan-analyze" then Workload.expected_answers spec else [] in
  let reps = if trace then 1 else spec.Workload.setup_reps in
  let live, setup_times = setups spec env ~reps in
  let conns =
    Array.init spec.Workload.conns (fun id -> Harness.connect ~port:live.Workload.server.Harness.port id)
  in
  let streams = Array.init spec.Workload.conns spec.Workload.stream in
  let next id = streams.(id) () in
  if spec.Workload.warmup > 0 then
    ignore (Harness.run ~limit:spec.Workload.warmup ~conns ~seconds:infinity ~next ());
  Gc.compact ();
  (* A traced run measures half its time untraced, then half traced on
     the same server and streams: the throughput difference is the
     tracing overhead. *)
  let samples, elapsed, traced =
    if not trace then
      let s, e = Harness.run ~conns ~seconds ~next () in
      (s, e, None)
    else begin
      let s1, e1 = Harness.run ~conns ~seconds:(seconds /. 2.) ~next () in
      Atomic.set live.Workload.server.Harness.traced true;
      let s2, e2 = Harness.run ~conns ~seconds:(seconds /. 2.) ~next () in
      Atomic.set live.Workload.server.Harness.traced false;
      (s1 @ s2, e1 +. e2, Some (s2, float_of_int (oks s1) /. e1, float_of_int (oks s2) /. e2))
    end
  in
  Array.iter Harness.close conns;
  let subplan = Option.bind (Protocol.service live.Workload.server.Harness.shared) Service.subplan_counters in
  let gates =
    match spec.Workload.name with
    | "rewrite-serve" -> Workload.rewrite_gates ~cat:(Workload.live_catalog live) samples
    | "plan-analyze" -> Workload.plan_gates ~expected samples
    | _ -> []
  in
  let tail = if spec.Workload.journaled then Workload.journal_tail live ~seed else [] in
  let cat = Workload.live_catalog live in
  Workload.shutdown live;
  let recovery_steps, recovery_gate =
    if spec.Workload.journaled then
      recover spec ~live ~cat ~tail ~restarts:(if trace then traced_restarts else 1) samples
    else ([], None)
  in
  let gates = gates @ Option.to_list recovery_gate in
  let failures = List.concat_map (fun g -> g.Workload.failures) gates in
  let failed = List.length samples - oks samples + List.length failures in
  let stem =
    Filename.concat out
      (Printf.sprintf "%s-seed%d%s" spec.Workload.name seed (if trace then "-traced" else ""))
  in
  let all_metrics, metrics =
    match traced with
    | None ->
        let m = Workload.end_to_end spec samples ~elapsed ~setup_s:(Util.median setup_times) in
        (m, m)
    | Some (traced, untraced_rps, traced_rps) ->
        let m =
          layer_metrics spec env ~stem ~cat ~subplan ~traced ~untraced_rps ~traced_rps ~recovery_steps
        in
        (m, select_metrics reported_layer_metrics m)
  in
  let latency = latency_json spec samples in
  let header = header spec ~seed ~seconds ~trace ~reps ~failed samples in
  let props = Util.Obj (Workload.properties samples) in
  let gates_json =
    Util.Arr
      (List.map
         (fun g ->
           Util.Obj
             [
               ("gate", Util.Str g.Workload.gate);
               ("checked", Util.Int g.Workload.checked);
               ("failures", Util.Arr (List.map (fun f -> Util.Str f) g.Workload.failures));
             ])
         gates)
  in
  let result =
    Util.Obj
      [
        ("correct", Util.Bool (failed = 0));
        ("attempted", Util.Int (List.length samples));
        ("failed", Util.Int failed);
        ("metrics", metric_json metrics);
      ]
  in
  Util.write_file (stem ^ ".json")
    (Util.json_to_string
       (Util.Obj
          [
            ("header", header);
            ("properties", props);
            ("latency_by_type", latency);
            ("gates", gates_json);
            ("metrics", metric_json all_metrics);
            ("result", result);
          ])
    ^ "\n");
  Util.write_file (stem ^ ".samples.tsv") (samples_tsv samples);
  List.iter prerr_endline failures;
  print_endline ("# header " ^ Util.json_to_string header);
  print_endline ("# properties " ^ Util.json_to_string props);
  print_endline ("# latency_by_type " ^ Util.json_to_string latency);
  print_endline ("# gates " ^ Util.json_to_string gates_json);
  print_endline (Util.json_to_string result);
  failed = 0

let () =
  let spec, seed, seconds, trace = parse_args () in
  if not (run spec ~seed ~seconds ~trace) then exit 1
