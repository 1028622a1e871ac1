(* The traced run's per-layer attribution.

   Two sources.  In band, the bench's handler closure timed every
   request of the traced phase: the client latency minus the handler
   time is the wait in the server's queue and on the wire ([net.wait]),
   and the handler time minus the service latency the flight recorder
   reports is the protocol's parsing and rendering
   ([protocol.render]).  Out of band, after the timed phase and with
   the server idle, the bench calls each layer's public function on the
   inputs of sampled requests — the same queries, the same catalog, the
   same data — and times it with its allocation.  Nothing here is inside
   [lib/].

   For every request type the top-level layers ([summands]) plus an
   explicit [unattributed] residual add up to the client-observed
   median latency of that type. *)

open Vplan

type call = {
  layer : string;
  rtype : string;  (** request type the call stands for, or [setup]/[recovery] *)
  req : string;  (** id of the sampled request *)
  shape : string;  (** the request's query shape *)
  t0 : float;
  ms : float;
  words : float;  (** [nan] for in-band layers *)
}

type t = {
  mutable calls : call list;
  mutable counts : (string * float) list;  (** per-call counts: view tuples, rows, ... *)
}

let create () = { calls = []; counts = [] }

let record p ?(shape = "") ~layer ~rtype ~req f =
  let t0 = Util.now () in
  let r, ms, words = Util.measure f in
  p.calls <- { layer; rtype; req; shape; t0; ms; words } :: p.calls;
  r

let count p name v = p.counts <- (name, v) :: p.counts

(* Where each layer sits in a request; spans and rows name it. *)
let parent = function
  | "client" -> ""
  | "net.wait" | "handler" -> "client"
  | "protocol.render" | "service" -> "handler"
  | "parser.rule" -> "protocol.render"
  | "corecover.minimize" | "corecover.view_tuples" | "corecover.tuple_cores"
  | "corecover.set_cover" ->
      "corecover.total"
  | "parser.facts" | "database.of_facts" | "stats.collect" | "materialize.views"
  | "estimate.view_stats" ->
      "setup"
  | "store.open" | "persist.replay" -> "recovery"
  | _ -> "service"

let summands = function
  | "rewrite_hit" -> [ "net.wait"; "protocol.render"; "service.hit" ]
  | "rewrite_miss" -> [ "net.wait"; "protocol.render"; "normalize.canonicalize"; "corecover.total" ]
  | "plan_exact" -> [ "net.wait"; "protocol.render"; "corecover.total"; "select.best_m2" ]
  | "plan_estimated" ->
      [ "net.wait"; "protocol.render"; "corecover.total"; "select.best_m2_estimated" ]
  | "analyze" ->
      [
        "net.wait"; "protocol.render"; "corecover.total"; "select.best_m2"; "exec.intern";
        "exec.answers";
      ]
  | "mutation" -> [ "net.wait"; "catalog.add_views"; "store.append" ]
  | _ -> []

let req_id (s : Harness.sample) = Printf.sprintf "c%d-%d" s.Harness.conn_id s.Harness.seq

let strip_verb line =
  match String.index_opt line '(' with
  | None -> line
  | Some i ->
      let head_start = try String.rindex_from line i ' ' + 1 with Not_found -> 0 in
      String.sub line head_start (String.length line - head_start)

(* [pick ~by_shape k samples] keeps up to [k] samples of each request
   type — of each (type, query shape) with [by_shape] — spread evenly
   over the run, tagged with their type. *)
let pick ?(by_shape = false) k samples =
  let by = Hashtbl.create 8 in
  List.iter
    (fun (s : Harness.sample) ->
      let key = (Workload.req_type s, if by_shape then s.Harness.req.Inputs.shape else "") in
      Hashtbl.replace by key (s :: Option.value ~default:[] (Hashtbl.find_opt by key)))
    samples;
  Hashtbl.fold
    (fun (t, _) l acc ->
      let step = max 1 (List.length l / k) in
      List.filteri (fun i _ -> i mod step = 0 && i / step < k) (List.rev l)
      |> List.map (fun s -> (t, s))
      |> List.rev_append acc)
    by []
  |> List.sort (fun (_, a) (_, b) -> compare a.Harness.seq b.Harness.seq)

(* ------------------------------------------------------------------ *)
(* In band. *)

let in_band p samples =
  List.iter
    (fun (s : Harness.sample) ->
      match s.Harness.times with
      | None -> ()
      | Some h ->
          let rtype = Workload.req_type s and req = req_id s in
          let shape = s.Harness.req.Inputs.shape in
          let add layer t0 ms =
            p.calls <- { layer; rtype; req; shape; t0; ms; words = Float.nan } :: p.calls
          in
          let handler_ms = (h.Harness.h_end -. h.Harness.h_start) *. 1000. in
          add "client" s.Harness.t_send (Harness.latency_ms s);
          add "net.wait" s.Harness.t_send (Harness.latency_ms s -. handler_ms);
          add "handler" h.Harness.h_start handler_ms;
          if Float.is_finite h.Harness.service_ms then begin
            add "service"
              (h.Harness.service_end -. (h.Harness.service_ms /. 1000.))
              h.Harness.service_ms;
            add "protocol.render" h.Harness.h_start (handler_ms -. h.Harness.service_ms)
          end)
    samples

(* ------------------------------------------------------------------ *)
(* Out of band: CoreCover and its steps, the way [Corecover] composes
   them, on the request's (canonical) query and the live catalog. *)

let corecover p ~rtype ~req ~cat ~all q =
  let views = Catalog.views cat and view_classes = Catalog.view_classes cat in
  let rec_ layer f = record p ~layer ~rtype ~req f in
  let r =
    rec_ "corecover.total" (fun () ->
        if all then Corecover.all_minimal ~view_classes ~query:q ~views ()
        else Corecover.gmrs ~view_classes ~query:q ~views ())
  in
  let qm = rec_ "corecover.minimize" (fun () -> Minimize.minimize q) in
  let tuples =
    rec_ "corecover.view_tuples" (fun () ->
        View_tuple.compute ~query:qm (Equiv_class.representatives view_classes))
  in
  let cores =
    rec_ "corecover.tuple_cores" (fun () ->
        Equiv_class.representatives
          (Equiv_class.group_by
             ~key:(fun (_, c) -> c.Tuple_core.mask)
             (List.map (fun tv -> (tv, Tuple_core.compute ~query:qm tv)) tuples)))
  in
  let sets =
    Array.of_list
      (List.filter_map
         (fun (_, c) -> if Tuple_core.is_empty c then None else Some c.Tuple_core.mask)
         cores)
  in
  let universe = (1 lsl List.length qm.Query.body) - 1 in
  ignore
    (rec_ "corecover.set_cover" (fun () ->
         if all then Set_cover.irredundant_covers_anytime ~max_results:10_000 ~universe sets
         else Set_cover.minimum_covers_anytime ~universe sets));
  count p "corecover.view_tuples" (float_of_int (List.length tuples));
  count p "corecover.rewritings" (float_of_int (List.length r.Corecover.rewritings));
  r

let parse p ~rtype ~req (s : Harness.sample) =
  match
    record p ~layer:"parser.rule" ~rtype ~req (fun () ->
        Parser.parse_rule (strip_verb s.Harness.req.Inputs.line))
  with
  | Ok q -> q
  | Error _ -> failwith ("perfbench: cannot reparse " ^ s.Harness.req.Inputs.line)

let rewrite_probes p ~cat picks =
  let svc = Service.create cat in
  List.iter
    (fun (rtype, s) ->
      let req = req_id s in
      match rtype with
      | "rewrite_hit" | "rewrite_miss" -> (
          let q = parse p ~rtype ~req s in
          let canon =
            record p ~layer:"normalize.canonicalize" ~rtype ~req (fun () ->
                Normalize.canonicalize q)
          in
          if rtype = "rewrite_hit" then begin
            ignore (Service.rewrite svc q);
            ignore (record p ~layer:"service.hit" ~rtype ~req (fun () -> Service.rewrite svc q))
          end
          else
            match canon with
            | Some (cq, _) -> ignore (corecover p ~rtype ~req ~cat ~all:false cq)
            | None -> ())
      | _ -> ())
    picks

(* The data-side layers, once per run on the workload's base facts. *)
let data_probes p ~facts =
  let rtype = "setup" and req = "setup" in
  let parsed =
    match record p ~layer:"parser.facts" ~rtype ~req (fun () -> Parser.parse_facts facts) with
    | Ok f -> f
    | Error _ -> failwith "perfbench: cannot reparse the facts"
  in
  let db = record p ~layer:"database.of_facts" ~rtype ~req (fun () -> Database.of_facts parsed) in
  let stats = record p ~layer:"stats.collect" ~rtype ~req (fun () -> Stats.collect db) in
  (db, stats)

let plan_probes p ~cat ~db ~stats picks =
  let views = Catalog.views cat in
  let setup layer f = record p ~layer ~rtype:"setup" ~req:"setup" f in
  let view_db =
    lazy
      (let vdb = setup "materialize.views" (fun () -> Materialize.views db views) in
       count p "materialize.rows" (float_of_int (Database.total_size vdb));
       vdb)
  in
  let est =
    lazy (setup "estimate.view_stats" (fun () -> Estimate.view_stats (Estimate.of_stats stats) views))
  in
  let memo = Subplan.create () and warmed = Hashtbl.create 8 in
  let best_m2 ~rtype ~req ~shape (r : Corecover.result) =
    let vdb = Lazy.force view_db in
    let run () = Select.best_m2 ~memo ~filters:r.Corecover.filters vdb r.Corecover.rewritings in
    (* the server's memo is warm after a shape's first plan; so is
       this one before the timed call *)
    if not (Hashtbl.mem warmed shape) then begin
      ignore (run ());
      Hashtbl.add warmed shape ()
    end;
    record p ~layer:"select.best_m2" ~rtype ~req run
  in
  List.iter
    (fun (rtype, (s : Harness.sample)) ->
      let req = req_id s and shape = s.Harness.req.Inputs.shape in
      match rtype with
      | "plan_exact" | "plan_estimated" | "analyze" -> (
          let q = parse p ~rtype ~req s in
          let r = corecover p ~rtype ~req ~cat ~all:true q in
          count p "select.candidates" (float_of_int (List.length r.Corecover.rewritings));
          match rtype with
          | "plan_exact" -> ignore (best_m2 ~rtype ~req ~shape r)
          | "plan_estimated" ->
              let est = Lazy.force est in
              ignore
                (record p ~layer:"select.best_m2_estimated" ~rtype ~req (fun () ->
                     Select.best_m2_estimated est r.Corecover.rewritings))
          | _ -> (
              match best_m2 ~rtype ~req ~shape r with
              | None -> ()
              | Some c ->
                  let interned =
                    record p ~layer:"exec.intern" ~rtype ~req (fun () ->
                        Interned.of_database (Lazy.force view_db))
                  in
                  let ordered = Query.make_exn c.Select.m2_rewriting.Query.head c.Select.m2_order in
                  let answers =
                    record p ~layer:"exec.answers" ~rtype ~req (fun () -> Exec.answers interned ordered)
                  in
                  let words = (List.hd p.calls).words in
                  let rows_in =
                    List.fold_left
                      (fun acc (a : Atom.t) ->
                        match Database.find a.Atom.pred (Lazy.force view_db) with
                        | Some r -> acc + Relation.cardinality r
                        | None -> acc)
                      0 ordered.Query.body
                  in
                  count p "exec.rows_out" (float_of_int (Relation.cardinality answers));
                  count p "exec.words_per_row" (words /. float_of_int (max 1 rows_in))))
      | _ -> ())
    picks

(* The restarts' own steps, timed as they ran. *)
let recovery p steps =
  List.iteri
    (fun k (layer, t0, ms, words) ->
      p.calls <-
        { layer; rtype = "recovery"; req = Printf.sprintf "restart-%d" k; shape = ""; t0; ms; words }
        :: p.calls)
    steps

(* Adds and removes alternate, so they are picked separately: an even
   spacing over both could land on removes only. *)
let mutation_probes p ~cat ~dir samples =
  let of_kind k = List.filter (fun (s : Harness.sample) -> s.Harness.req.Inputs.kind = k) samples in
  let picks = pick 10 (of_kind Inputs.Add_view) @ pick 10 (of_kind Inputs.Remove_view) in
  let st, _ = Workload.store_exn "probe store" (Store.open_dir dir) in
  Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
  List.iter
    (fun (rtype, (s : Harness.sample)) ->
      let req = req_id s in
      match s.Harness.req.Inputs.kind with
      | Inputs.Add_view ->
          let text = s.Harness.req.Inputs.view_text in
          let v =
            match Persist.view_of_text text with
            | Ok v -> v
            | Error e -> failwith ("perfbench: " ^ e)
          in
          ignore
            (record p ~layer:"catalog.add_views" ~rtype ~req (fun () -> Catalog.add_views cat [ v ]));
          ignore
            (record p ~layer:"store.append" ~rtype ~req (fun () ->
                 Store.append st (Record.Add_view text)))
      | Inputs.Remove_view ->
          ignore
            (record p ~layer:"store.append" ~rtype ~req (fun () ->
                 Store.append st (Record.Remove_view s.Harness.req.Inputs.shape)))
      | _ -> ())
    picks

(* ------------------------------------------------------------------ *)
(* Output. *)

let stats3 xs = (Util.quantile 0.1 xs, Util.median xs, Util.quantile 0.9 xs)

(* One row per (request type, layer), plus each type's residual. *)
let rows ~workload p =
  let keys =
    List.sort_uniq compare (List.map (fun c -> (c.rtype, c.layer)) p.calls)
  in
  let of_key (rt, l) = List.filter (fun c -> c.rtype = rt && c.layer = l) p.calls in
  let p50 rt l = match of_key (rt, l) with [] -> None | cs -> Some (Util.median (List.map (fun c -> c.ms) cs)) in
  let fmt x = if Float.is_finite x then Printf.sprintf "%.4f" x else "-" in
  let layer_rows =
    List.map
      (fun ((rt, l) as key) ->
        let cs = of_key key in
        let m10, m50, m90 = stats3 (List.map (fun c -> c.ms) cs) in
        let w10, w50, w90 = stats3 (List.map (fun c -> c.words) cs) in
        String.concat "\t"
          [
            workload; rt; l; parent l;
            string_of_bool (List.mem l (summands rt));
            string_of_int (List.length cs);
            fmt m10; fmt m50; fmt m90; fmt w10; fmt w50; fmt w90;
          ])
      keys
  in
  let types = List.sort_uniq compare (List.map fst keys) in
  let residuals =
    List.filter_map
      (fun rt ->
        match (p50 rt "client", summands rt) with
        | Some client, (_ :: _ as parts) ->
            let covered = List.filter_map (p50 rt) parts in
            let u = client -. List.fold_left ( +. ) 0. covered in
            Some
              ( rt,
                u,
                String.concat "\t"
                  [ workload; rt; "unattributed"; "client"; "true"; "-"; "-"; fmt u; "-"; "-"; "-"; "-" ] )
        | _ -> None)
      types
  in
  let header =
    "workload\ttype\tlayer\tparent\tsummand\tcalls\tms_p10\tms_p50\tms_p90\twords_p10\twords_p50\twords_p90"
  in
  (header :: layer_rows @ List.map (fun (_, _, r) -> r) residuals, List.map (fun (rt, u, _) -> (rt, u)) residuals)

let spans p =
  List.rev_map
    (fun c ->
      Util.json_to_string
        (Util.Obj
           [
             ("name", Util.Str c.layer);
             ("parent", Util.Str (parent c.layer));
             ("req", Util.Str c.req);
             ("type", Util.Str c.rtype);
             ("shape", Util.Str c.shape);
             ("start", Util.Num c.t0);
             ("end", Util.Num (c.t0 +. (c.ms /. 1000.)));
             ("words", Util.Num c.words);
           ]))
    p.calls

(* The flat per-layer metrics of the result line. *)
let metrics p ~residuals ~extra =
  let layers = List.sort_uniq compare (List.map (fun c -> c.layer) p.calls) in
  let layer_metrics =
    List.concat_map
      (fun l ->
        if l = "client" || l = "handler" || l = "service" then []
        else
          let cs = List.filter (fun c -> c.layer = l) p.calls in
          let ws = List.filter Float.is_finite (List.map (fun c -> c.words) cs) in
          ((l ^ ".ms"), Util.median (List.map (fun c -> c.ms) cs), "ms")
          :: (if ws = [] then [] else [ (l ^ ".words", Util.median ws, "words") ]))
      layers
  in
  let count_metrics =
    List.map
      (fun name ->
        let vs = List.filter_map (fun (n, v) -> if n = name then Some v else None) p.counts in
        (name, Util.median vs, if name = "exec.words_per_row" then "words" else "count"))
      (List.sort_uniq compare (List.map fst p.counts))
  in
  layer_metrics @ count_metrics
  @ List.map (fun (rt, u) -> (rt ^ ".unattributed.ms", u, "ms")) residuals
  @ extra
