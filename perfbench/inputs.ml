(* Seeded inputs of the three workloads: the view catalog, the base
   facts, and each connection's request stream.  The server only ever
   sees the rendered text — a catalog file, a facts file, request
   lines — never these OCaml values.  The same seed gives the same
   inputs. *)

open Vplan

type kind =
  | Rewrite
  | Plan_exact
  | Plan_estimated
  | Analyze
  | Add_view
  | Remove_view

type request = {
  kind : kind;
  line : string;  (** the request line sent on the wire *)
  shape : string;  (** query family, e.g. ["star7"]; the view name for mutations *)
  form : int;  (** rewrites: canonical-form id; [-1] otherwise *)
  query : Query.t option;  (** the query as sent *)
  view_text : string;  (** [Add_view]: the rule text of the added view *)
  check : bool;  (** keep the whole reply for the correctness gate *)
}

let relation i = "r" ^ string_of_int i
let v name = Term.Var name

let take n l = List.filteri (fun i _ -> i < n) l

let rule_line verb (q : Query.t) = verb ^ " " ^ Query.to_string q ^ "."

let request ?(form = -1) ?query ?(view_text = "") ?(check = false) kind ~shape
    line =
  { kind; line; shape; form; query; view_text; check }

(* ------------------------------------------------------------------ *)
(* The 1000-view catalog of rewrite-serve and catalog-churn: the paper's
   Section 7 star and chain generators over eight binary relations.
   800 star views make it all but certain that every one of the 92
   star bodies of 1-3 subgoals occurs, so the rewriting counts — and
   with them reply sizes and hit costs — barely depend on the seed. *)

let rename_view prefix (q : Query.t) =
  Query.make_exn
    (Atom.make (prefix ^ q.Query.head.Atom.pred) q.Query.head.Atom.args)
    q.Query.body

let rewrite_catalog ~seed =
  let gen shape num_views seed =
    (Generator.generate { Generator.default with shape; num_views; seed })
      .Generator.views
  in
  List.map (rename_view "s") (gen Generator.Star 800 seed)
  @ List.map (rename_view "c") (gen Generator.Chain 200 (seed + 1))

(* Fresh canonical forms: stars over [k] of the eight relations and, as
   other shapes, chain segments of 5-8 subgoals, each variable kept in
   the head with probability 3/4.  Every [k]-star has about the same
   number of rewritings, so with stars at 85% of the fresh forms both
   the median and the p90 fall inside the star costs rather than
   between the cheap chain replies and the star ones. *)
let head_subset rng vars =
  match List.filter (fun _ -> Prng.int rng 4 <> 0) vars with
  | [] -> [ List.hd vars ]
  | kept -> kept

let star_form rng k =
  let rels = List.sort compare (take k (Prng.shuffle rng (List.init 8 Fun.id))) in
  let x i = v ("X" ^ string_of_int i) in
  let body = List.map (fun i -> Atom.make (relation i) [ v "C"; x i ]) rels in
  let head = head_subset rng (v "C" :: List.map x rels) in
  ("star" ^ string_of_int k, Query.make_exn (Atom.make "q" head) body)

let chain_form rng =
  let k = 5 + Prng.int rng 4 in
  let s = Prng.int rng (8 - k + 1) in
  let x i = v ("X" ^ string_of_int i) in
  let body = List.init k (fun i -> Atom.make (relation (s + i)) [ x (s + i); x (s + i + 1) ]) in
  let head = head_subset rng (List.init (k + 1) (fun i -> x (s + i))) in
  ("chain" ^ string_of_int k, Query.make_exn (Atom.make "q" head) body)

(* An isomorphic resubmission: every variable renamed apart, the body
   permuted — the same canonical form, never the same text. *)
let variant rng ~tag (q : Query.t) =
  let sigma =
    Subst.of_list
      (List.mapi (fun i x -> (x, v (Printf.sprintf "V%s_%d" tag i))) (Query.vars q))
  in
  let r = Query.apply sigma q in
  Query.make_exn r.Query.head (Prng.shuffle rng r.Query.body)

let recent_window = 64

(* One connection's rewrite requests.  Fresh forms are partitioned
   between connections by key hash, so no two connections ever send the
   same form fresh; a repeat resubmits one of this connection's last
   [recent_window] forms, which it has already seen answered — well
   inside the server's 512-entry cache unless a mutation cleared it. *)
type rewrites = {
  rng : Prng.t;
  star : int;  (** subgoals of the fresh star forms *)
  conn : int;
  nconns : int;
  seen : (string, unit) Hashtbl.t;
  recent : (int * string * Query.t) option array;
  mutable forms : int;
  mutable seq : int;
}

let rewrites ~seed ~conn ~nconns ~star =
  {
    rng = Prng.create ((seed * 7919) + (conn * 104729) + 1);
    star;
    conn;
    nconns;
    seen = Hashtbl.create 1024;
    recent = Array.make recent_window None;
    forms = 0;
    seq = 0;
  }

let rec fresh_form st =
  let shape, q =
    if Prng.int st.rng 20 < 17 then star_form st.rng st.star else chain_form st.rng
  in
  match Normalize.cache_key q with
  | Some key
    when (not (Hashtbl.mem st.seen key)) && Hashtbl.hash key mod st.nconns = st.conn ->
      Hashtbl.add st.seen key ();
      (shape, q)
  | _ -> fresh_form st

let next_rewrite st ~fresh =
  st.seq <- st.seq + 1;
  let check = Prng.int st.rng 64 = 0 in
  let tag = Printf.sprintf "%d_%d" st.conn st.seq in
  if fresh || st.forms = 0 then begin
    let shape, q = fresh_form st in
    let form = (st.conn * 1_000_000) + st.forms in
    st.recent.(st.forms mod recent_window) <- Some (form, shape, q);
    st.forms <- st.forms + 1;
    let q = variant st.rng ~tag q in
    request Rewrite ~form ~query:q ~check ~shape (rule_line "rewrite" q)
  end
  else
    match st.recent.(Prng.int st.rng (min st.forms recent_window)) with
    | None -> assert false (* slots below [st.forms] are filled *)
    | Some (form, shape, q) ->
        let q = variant st.rng ~tag q in
        request Rewrite ~form ~query:q ~check ~shape (rule_line "rewrite" q)

(* rewrite-serve: exactly one request in five is a fresh form; its
   7-subgoal stars have about 1100 rewritings, some 90 KB a reply. *)
let rewrite_serve_stream ~seed ~conn ~nconns =
  let st = rewrites ~seed ~conn ~nconns ~star:7 in
  fun () -> next_rewrite st ~fresh:(st.seq mod 5 = 0)

(* ------------------------------------------------------------------ *)
(* Base data: binary relations of [rows] tuples over a domain of 4x
   [rows] values, so most join keys miss and semi-joins have dangling
   tuples to prune; the last relation's value column is Zipf-skewed
   (as in the acyclic experiment). *)

let base_db ~seed ~relations ~rows =
  Datagen.random_dist (Prng.create (seed + 53))
    (List.init relations (fun i ->
         ( { Datagen.predicate = relation i; arity = 2; tuples = rows; domain = 4 * rows },
           if i = relations - 1 then [ Datagen.Uniform; Datagen.Zipf 0.9 ] else [] )))

let facts_text db =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun name ->
      Relation.iter
        (fun tuple ->
          Buffer.add_string b name;
          Buffer.add_char b '(';
          Buffer.add_string b (String.concat ", " (List.map Term.const_to_string tuple));
          Buffer.add_string b ").\n")
        (Database.find_exn name db))
    (Database.predicates db);
  Buffer.contents b

let catalog_text views =
  String.concat "" (List.map (fun q -> Query.to_string q ^ ".\n") views)

(* ------------------------------------------------------------------ *)
(* plan-analyze: the subpath views (length 1-3, endpoints exposed) of
   a 6-relation path, and a fixed set of query shapes.  The shapes are
   fixed, not drawn, because exact-mode planning over some other path
   and chain queries of this catalog exhausts memory; the seed varies
   the data, the variable names, the body order and the request
   order. *)

let path_views =
  List.concat_map
    (fun m ->
      List.init (6 - m + 1) (fun s ->
          let y i = v ("Y" ^ string_of_int i) in
          Query.make_exn
            (Atom.make (Printf.sprintf "p%d_%d" s m) [ y 0; y m ])
            (List.init m (fun i -> Atom.make (relation (s + i)) [ y i; y (i + 1) ]))))
    [ 1; 2; 3 ]

let plan_shapes =
  List.map
    (fun (name, text) -> (name, Parser.parse_rule_exn text))
    [
      ( "path6",
        "q(X0, X6) :- r0(X0, X1), r1(X1, X2), r2(X2, X3), r3(X3, X4), r4(X4, X5), \
         r5(X5, X6)." );
      ("chain2", "q(X0, X1, X2) :- r0(X0, X1), r1(X1, X2).");
      ("star3", "q(C, X1, X2, X3) :- r0(C, X1), r1(C, X2), r2(C, X3).");
      ("triangle", "q(X, Y, Z) :- r0(X, Y), r1(Y, Z), r2(Z, X).");
    ]

(* One round per shape: an exact plan, an analyze, and four estimated
   plans — they take a fraction of a millisecond where the others take
   hundreds, and a median of a few such samples is mostly noise. *)
let plan_round = [ Plan_exact; Analyze; Plan_estimated; Plan_estimated; Plan_estimated; Plan_estimated ]

(* Requests in one cycle of the stream below. *)
let plan_cycle = List.length plan_round * List.length plan_shapes

(* One stream shared by the connections: cycles of one round per shape,
   shapes in seeded order, the requests of a round in seeded order.
   Every prefix therefore holds the types in almost fixed shares,
   whichever connection takes which request. *)
let plan_analyze_stream ~seed =
  let rng = Prng.create ((seed * 31) + 5) in
  let queue = Queue.create () in
  let seq = ref 0 in
  let refill () =
    List.iter
      (fun (shape, q) ->
        List.iter
          (fun kind ->
            incr seq;
            let q = variant rng ~tag:(string_of_int !seq) q in
            let verb = if kind = Analyze then "explain analyze" else "plan" in
            Queue.add (request kind ~query:q ~shape (rule_line verb q)) queue)
          (Prng.shuffle rng plan_round))
      (Prng.shuffle rng plan_shapes)
  in
  fun () ->
    if Queue.is_empty queue then refill ();
    Queue.pop queue

(* ------------------------------------------------------------------ *)
(* catalog-churn: rewrites interleaved with estimated-mode plans and —
   on connection 0 only, so mutations are totally ordered and strictly
   alternate add/remove — journaled catalog mutations. *)

let churn_plan rng ~tag =
  let x i = v ("X" ^ string_of_int i) in
  let shape, q =
    if Prng.bool rng then
      let rels = List.sort compare (take 4 (Prng.shuffle rng (List.init 8 Fun.id))) in
      ( "star4",
        Query.make_exn
          (Atom.make "q" (v "C" :: List.map x rels))
          (List.map (fun i -> Atom.make (relation i) [ v "C"; x i ]) rels) )
    else
      let s = Prng.int rng 5 in
      ( "chain4",
        Query.make_exn
          (Atom.make "q" (List.init 5 (fun i -> x (s + i))))
          (List.init 4 (fun i -> Atom.make (relation (s + i)) [ x (s + i); x (s + i + 1) ])) )
  in
  let q = variant rng ~tag q in
  request Plan_estimated ~query:q ~shape (rule_line "plan" q)

(* A view the generators could have drawn: a star of 1-3 relations or a
   chain segment of 1-3 subgoals, all variables distinguished. *)
let churn_view rng name =
  let m = 1 + Prng.int rng 3 in
  let body, head =
    if Prng.bool rng then
      let rels = take m (Prng.shuffle rng (List.init 8 Fun.id)) in
      let b i = v ("B" ^ string_of_int i) in
      ( List.mapi (fun i r -> Atom.make (relation r) [ v "A"; b i ]) rels,
        v "A" :: List.mapi (fun i _ -> b i) rels )
    else
      let s = Prng.int rng (8 - m + 1) in
      let y i = v ("Y" ^ string_of_int i) in
      ( List.init m (fun i -> Atom.make (relation (s + i)) [ y i; y (i + 1) ]),
        List.init (m + 1) y )
  in
  Query.make_exn (Atom.make name head) body

(* Its rewrites are 6-subgoal stars, a tenth of the cost of
   rewrite-serve's, so a run holds enough mutations for their p90. *)
(* Every view body the generators can draw: the 92 stars of 1-3 of the
   eight relations and the 21 chain segments of 1-3 subgoals. *)
let all_view_bodies =
  let rec subsets k from =
    if k = 0 then [ [] ]
    else if from >= 8 then []
    else List.map (fun s -> from :: s) (subsets (k - 1) (from + 1)) @ subsets k (from + 1)
  in
  let b i = v ("B" ^ string_of_int i) and y i = v ("Y" ^ string_of_int i) in
  List.concat_map
    (fun m ->
      List.map
        (fun rels ->
          ( v "A" :: List.mapi (fun i _ -> b i) rels,
            List.mapi (fun i r -> Atom.make (relation r) [ v "A"; b i ]) rels ))
        (subsets m 0)
      @ List.init (8 - m + 1) (fun s ->
            ( List.init (m + 1) y,
              List.init m (fun i -> Atom.make (relation (s + i)) [ y i; y (i + 1) ]) )))
    [ 1; 2; 3 ]

(* The journal a restart replays: [count] mutations, alternately adding
   a view and removing it, sent after the timed phase's state was
   compacted into a snapshot.  The adds cycle through every body in
   seeded order, so recovery replays the same work whatever the seed
   and whatever the run's throughput. *)
let journal_tail ~seed ~count =
  let bodies = Array.of_list (Prng.shuffle (Prng.create ((seed * 977) + 3)) all_view_bodies) in
  List.init count (fun i ->
      let name = Printf.sprintf "t%d" (i / 2) in
      if i mod 2 = 0 then
        let head, body = bodies.(i / 2 mod Array.length bodies) in
        let text = Query.to_string (Query.make_exn (Atom.make name head) body) ^ "." in
        request Add_view ~view_text:text ~shape:name ("catalog add " ^ text)
      else request Remove_view ~shape:name ("catalog remove " ^ name))

let churn_stream ~seed ~conn ~nconns =
  let st = rewrites ~seed ~conn ~nconns ~star:6 in
  let rng = Prng.create ((seed * 131) + conn) in
  let added = ref 0 and live = ref None and plans = ref 0 in
  fun () ->
    let r = if conn = 0 then Prng.int rng 20 - 4 else Prng.int rng 16 in
    if r < 0 then
      match !live with
      | Some name ->
          live := None;
          request Remove_view ~shape:name ("catalog remove " ^ name)
      | None ->
          incr added;
          let name = Printf.sprintf "m%d" !added in
          let q = churn_view rng name in
          live := Some name;
          let text = Query.to_string q ^ "." in
          request Add_view ~view_text:text ~shape:name ("catalog add " ^ text)
    else if r < 3 then begin
      incr plans;
      churn_plan rng ~tag:(Printf.sprintf "p%d_%d" conn !plans)
    end
    else next_rewrite st ~fresh:(r < 6)
