open Vplan_relational
module Atom = Vplan_cq.Atom
module Term = Vplan_cq.Term
module Names = Vplan_cq.Names
module Budget = Vplan_core.Budget
module Vplan_error = Vplan_core.Vplan_error

let max_subgoals = 20

let width_limit n =
  raise (Vplan_error.Error (Vplan_error.Width_limit { subgoals = n; max_subgoals }))

let relation_cells db (a : Atom.t) =
  Eval.relation_size db a * max 1 (Atom.arity a)

let body_relation_cells db body =
  List.fold_left (fun acc a -> acc + relation_cells db a) 0 body

let intermediate_sizes db order =
  let _, rev_sizes =
    List.fold_left
      (fun (envs, sizes) atom ->
        let envs = Eval.extend db envs atom in
        (envs, List.length envs :: sizes))
      ([ Eval.empty_env ], [])
      order
  in
  List.rev rev_sizes

(* Variable sets as bitsets over a per-body variable index: emptiness-of-
   intersection (the connectivity test) becomes a word operation instead
   of a [Names.Sset] rebuild per DP state.  A body of up to 20 atoms
   rarely exceeds 63 distinct variables, but arities are unbounded, so
   masks are word arrays rather than a single int. *)
module Mask = struct
  let zero words = Array.make words 0

  let union a b = Array.init (Array.length a) (fun k -> a.(k) lor b.(k))

  let intersects a b =
    let n = Array.length a in
    let rec go k = k < n && (a.(k) land b.(k) <> 0 || go (k + 1)) in
    go 0
end

let lowest_index bit =
  let rec find k = if 1 lsl k = bit then k else find (k + 1) in
  find 0

(* compiled atom argument: a constant to check, or a variable code *)
type carg = Ccst of Term.const | Cvar of int

let lower_bound (slots : int array) v =
  let lo = ref 0 and hi = ref (Array.length slots) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if slots.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let mem_sorted slots v =
  let k = lower_bound slots v in
  k < Array.length slots && slots.(k) = v

let merge_sorted (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      out.(!k) <- x;
      incr i;
      incr j
    end
    else if x < y then begin
      out.(!k) <- x;
      incr i
    end
    else begin
      out.(!k) <- y;
      incr j
    end;
    incr k
  done;
  while !i < la do
    out.(!k) <- a.(!i);
    incr i;
    incr k
  done;
  while !j < lb do
    out.(!k) <- b.(!j);
    incr j;
    incr k
  done;
  if !k = la + lb then out else Array.sub out 0 !k

(* -- hash-join primitives ------------------------------------------- *)
(* Shared by the DP's subplan joins and [cost_of_order]: instead of
   running every (environment, tuple) pair through compiled checks,
   tuples passing the env-independent checks (constants, repeated fresh
   variables) are filtered once, then grouped into a hash table keyed on
   the positions matching already-bound slots; each environment probes
   with its slot values.  An empty key degenerates to a cross product. *)

let filter_tuples const_checks dup_checks (tuples : Term.const array array) =
  let out = ref [] in
  for k = Array.length tuples - 1 downto 0 do
    let t = tuples.(k) in
    if
      List.for_all (fun (p, c) -> Term.equal_const c t.(p)) const_checks
      && List.for_all (fun (p, p0) -> Term.equal_const t.(p) t.(p0)) dup_checks
    then out := t :: !out
  done;
  !out

let row_key slot_checks (t : Term.const array) =
  List.map (fun (p, _) -> t.(p)) slot_checks

let env_key slot_checks (env : Term.const array) =
  List.map (fun (_, j) -> env.(j)) slot_checks

let group_by_key slot_checks filtered =
  let tbl = Hashtbl.create (max 16 (List.length filtered)) in
  List.iter
    (fun t ->
      let key = row_key slot_checks t in
      let prev = match Hashtbl.find_opt tbl key with Some l -> l | None -> [] in
      Hashtbl.replace tbl key (t :: prev))
    filtered;
  tbl

(* Compile an atom's argument positions against a slot array. *)
let compile_checks (cargs : carg array) (slots : int array) =
  let const_checks = ref [] and slot_checks = ref [] and dup_checks = ref [] in
  let first_pos = Hashtbl.create 8 in
  Array.iteri
    (fun p arg ->
      match arg with
      | Ccst c -> const_checks := (p, c) :: !const_checks
      | Cvar v ->
          if mem_sorted slots v then
            slot_checks := (p, lower_bound slots v) :: !slot_checks
          else (
            match Hashtbl.find_opt first_pos v with
            | Some p0 -> dup_checks := (p, p0) :: !dup_checks
            | None -> Hashtbl.add first_pos v p))
    cargs;
  (first_pos, !const_checks, !slot_checks, !dup_checks)

(* value source per new slot: an existing slot or a (first occurrence)
   tuple position *)
let sources_for prev_slots first_pos new_slots =
  Array.map
    (fun v ->
      if mem_sorted prev_slots v then -lower_bound prev_slots v - 1
      else Hashtbl.find first_pos v)
    new_slots

let build_env sources nlen (env : Term.const array) (tuple : Term.const array) =
  Array.init nlen (fun k ->
      let src = sources.(k) in
      if src >= 0 then tuple.(src) else env.(-src - 1))

let hash_join ~slots ~cargs ~avars ~tuples envs =
  let new_slots = merge_sorted slots avars in
  let nlen = Array.length new_slots in
  let first_pos, const_checks, slot_checks, dup_checks =
    compile_checks cargs slots
  in
  let filtered = filter_tuples const_checks dup_checks tuples in
  let sources = sources_for slots first_pos new_slots in
  let out =
    match slot_checks with
    | [] ->
        List.concat_map
          (fun env -> List.rev_map (fun t -> build_env sources nlen env t) filtered)
          envs
    | _ :: _ ->
        let tbl = group_by_key slot_checks filtered in
        List.concat_map
          (fun env ->
            match Hashtbl.find_opt tbl (env_key slot_checks env) with
            | None -> []
            | Some ts -> List.rev_map (fun t -> build_env sources nlen env t) ts)
          envs
  in
  (new_slots, out)

let carg_of code_of (a : Atom.t) =
  Array.of_list
    (List.map
       (function Term.Cst c -> Ccst c | Term.Var x -> Cvar (code_of x))
       a.Atom.args)

let local_coder () =
  let local = Hashtbl.create 16 and next = ref 0 in
  fun x ->
    match Hashtbl.find_opt local x with
    | Some c -> c
    | None ->
        let c = !next in
        Hashtbl.add local x c;
        incr next;
        c

let avars_of cargs =
  Array.to_list cargs
  |> List.filter_map (function Cvar v -> Some v | Ccst _ -> None)
  |> List.sort_uniq Int.compare
  |> Array.of_list

let tuples_of db (a : Atom.t) =
  match Database.find a.Atom.pred db with
  | None -> [||]
  | Some r -> Array.of_list (List.map Array.of_list (Relation.tuples r))

(* A key of the memo's cells-only namespace: a tag byte telling the
   kinds of cell count apart, then each atom's interned code as four
   bytes. *)
let cells_key tag codes =
  let b = Buffer.create (1 + (4 * List.length codes)) in
  Buffer.add_char b tag;
  List.iter (fun c -> Buffer.add_int32_le b (Int32.of_int c)) codes;
  Buffer.contents b

let cost_of_order ?memo db order =
  let compute () =
    let relation_costs = body_relation_cells db order in
    let code_of = local_coder () in
    let _, _, ir_cells =
      List.fold_left
        (fun (slots, envs, acc) (a : Atom.t) ->
          let cargs = carg_of code_of a in
          let new_slots, envs =
            hash_join ~slots ~cargs ~avars:(avars_of cargs)
              ~tuples:(tuples_of db a) envs
          in
          (new_slots, envs, acc + (List.length envs * max 1 (Array.length new_slots))))
        ([||], [ [||] ], 0)
        order
    in
    relation_costs + ir_cells
  in
  match memo with
  | None -> compute ()
  | Some m ->
      (* the cost of an order depends on the atom sequence, so the key
         keeps join order *)
      let codes = List.map (fun a -> Subplan.intern m (Atom.to_string a)) order in
      Subplan.cells_or_add m (cells_key 'o' codes) compute

(* DP over subsets.  With all attributes retained, both the tuple count
   and the width of IR depend only on the joined subgoal set, so
   f(S) = min over g in S of f(S \ {g}) + cells(IR(S)), and the total cost
   adds the (order-independent) relation sizes.  Environments are shared
   bottom-up: envs(S) is computed from envs(S minus one atom) once — or
   not at all when a [memo] already holds the atom set from an earlier
   candidate, or when branch-and-bound proves S cannot reach a plan
   cheaper than [bound].

   Environments are flat constant arrays over the subset's sorted
   variable codes ({!Subplan.entry}): extending one binds a handful of
   array cells instead of rebuilding a string-keyed map per atom, which
   is where the naive evaluator spends most of its time.  Starting from
   the single empty environment, the environments of a subset are
   distinct by construction (an environment plus a matched tuple
   determines the extension), so no deduplication is ever needed, and
   the set — though not the list order — is canonical per atom set.

   Pruning is sound because every cost term is nonnegative: a state S
   with (min over predecessors of best) + relation_costs >= bound cannot
   be a prefix of any ordering of total cost < bound, so its (expensive)
   environment set is never materialized; and when an entire popcount
   layer dies, no completion below [bound] exists at all.  Among states
   that can still reach a total < bound, [best] values are exact and
   independent of [bound], so the returned ordering of an accepted
   result never depends on how tight the bound was — the property the
   parallel candidate loop's determinism rests on. *)
let dp ~connected ?memo ?budget ?(bound = max_int) db body =
  let n = List.length body in
  if n = 0 then Some ([], 0)
  else if n > max_subgoals then width_limit n
  else begin
    let relation_costs = body_relation_cells db body in
    if relation_costs >= bound then None
    else begin
      (* canonical atom order: with atoms sorted by their rendering, a
         subset key read off in index order is order-insensitive, so
         candidates sharing an atom set share memo entries *)
      let atoms = Array.of_list body in
      let ids0 = Array.map Atom.to_string atoms in
      let perm = Array.init n Fun.id in
      Array.sort (fun i j -> String.compare ids0.(i) ids0.(j)) perm;
      let atoms = Array.map (fun i -> atoms.(i)) perm in
      let ids = Array.map (fun i -> ids0.(i)) perm in
      (* variable codes: drawn from the memo's intern table when present
         (shared across candidates, so entry slots are canonical), local
         otherwise.  The "$" prefix keeps variable names out of the atom
         renderings' namespace. *)
      let code_of =
        match memo with
        | Some m -> fun x -> Subplan.intern m ("$" ^ x)
        | None -> local_coder ()
      in
      let cargs = Array.map (carg_of code_of) atoms in
      (* sorted distinct variable codes per atom *)
      let avars = Array.map avars_of cargs in
      (* converted on first join only: a DP whose states all hit the
         memo never touches a relation *)
      let tuples = Array.map (fun a -> lazy (tuples_of db a)) atoms in
      (* per-atom variable masks over a dense local index, for the
         connected mode's shares-a-variable test *)
      let var_ids = Hashtbl.create 16 in
      let nvars = ref 0 in
      Array.iter
        (Array.iter (fun v ->
             if not (Hashtbl.mem var_ids v) then begin
               Hashtbl.add var_ids v !nvars;
               incr nvars
             end))
        avars;
      let words = max 1 ((!nvars + 62) / 63) in
      let amask =
        Array.map
          (fun vs ->
            let m = Mask.zero words in
            Array.iter
              (fun v ->
                let i = Hashtbl.find var_ids v in
                m.(i / 63) <- m.(i / 63) lor (1 lsl (i mod 63)))
              vs;
            m)
          avars
      in
      let full = (1 lsl n) - 1 in
      (* subset masks, built incrementally ([||] marks unset) *)
      let masks = Array.make (full + 1) [||] in
      masks.(0) <- Mask.zero words;
      let rec mask_of s =
        if Array.length masks.(s) > 0 || s = 0 then masks.(s)
        else begin
          let bit = s land -s in
          let m = Mask.union (mask_of (s lxor bit)) amask.(lowest_index bit) in
          masks.(s) <- m;
          m
        end
      in
      (* memo keys: each atom rendering is interned to a small code once
         per DP, and a subset key packs the codes of its set bits in
         index order — a few bytes per atom to hash instead of the full
         renderings *)
      let codes =
        match memo with
        | None -> [||]
        | Some m -> Array.map (fun id -> Subplan.intern m id) ids
      in
      let subset_key s =
        let b = Buffer.create (4 * n) in
        for i = 0 to n - 1 do
          if s land (1 lsl i) <> 0 then Buffer.add_int32_le b (Int32.of_int codes.(i))
        done;
        Buffer.contents b
      in
      (* Joining an entry with atom [i]: one hash build over the atom's
         filtered tuples, one probe per environment. *)
      let join i prev =
        let new_slots, envs =
          hash_join ~slots:prev.Subplan.slots ~cargs:cargs.(i) ~avars:avars.(i)
            ~tuples:(Lazy.force tuples.(i)) prev.Subplan.envs
        in
        {
          Subplan.slots = new_slots;
          envs;
          cells = List.length envs * max 1 (Array.length new_slots);
        }
      in
      let count_cells i prev =
        let prev_slots = prev.Subplan.slots in
        let new_slots = merge_sorted prev_slots avars.(i) in
        let _, const_checks, slot_checks, dup_checks =
          compile_checks cargs.(i) prev_slots
        in
        let filtered = filter_tuples const_checks dup_checks (Lazy.force tuples.(i)) in
        let count =
          match slot_checks with
          | [] -> List.length prev.Subplan.envs * List.length filtered
          | _ :: _ ->
              let counts = Hashtbl.create (max 16 (List.length filtered)) in
              List.iter
                (fun t ->
                  let key = row_key slot_checks t in
                  let c =
                    match Hashtbl.find_opt counts key with Some c -> c | None -> 0
                  in
                  Hashtbl.replace counts key (c + 1))
                filtered;
              List.fold_left
                (fun acc env ->
                  match Hashtbl.find_opt counts (env_key slot_checks env) with
                  | Some c -> acc + c
                  | None -> acc)
                0 prev.Subplan.envs
        in
        count * max 1 (Array.length new_slots)
      in
      (* environments + IR cells per subset, shared through the memo *)
      let entries : Subplan.entry option array = Array.make (full + 1) None in
      entries.(0) <- Some { Subplan.slots = [||]; envs = [ [||] ]; cells = 0 };
      let rec entry_of s =
        match entries.(s) with
        | Some e -> e
        | None ->
            let compute () =
              (* extend from any predecessor already at hand — live in
                 this DP, or cached by an earlier candidate — before
                 resorting to the recursive lowest-bit chain, which may
                 materialize states no ordering of this body needs *)
              let rec local i =
                if i >= n then None
                else if s land (1 lsl i) <> 0 then
                  match entries.(s lxor (1 lsl i)) with
                  | Some prev -> Some (i, prev)
                  | None -> local (i + 1)
                else local (i + 1)
              in
              let cached () =
                match memo with
                | None -> None
                | Some m ->
                    let rec go i =
                      if i >= n then None
                      else if s land (1 lsl i) <> 0 then begin
                        let p = s lxor (1 lsl i) in
                        match Subplan.find m (subset_key p) with
                        | Some prev ->
                            entries.(p) <- Some prev;
                            Some (i, prev)
                        | None -> go (i + 1)
                      end
                      else go (i + 1)
                    in
                    go 0
              in
              match local 0 with
              | Some (i, prev) -> join i prev
              | None -> (
                  match cached () with
                  | Some (i, prev) -> join i prev
                  | None ->
                      let bit = s land -s in
                      join (lowest_index bit) (entry_of (s lxor bit)))
            in
            let e =
              match memo with
              | None -> compute ()
              | Some m -> Subplan.find_or_add m (subset_key s) compute
            in
            entries.(s) <- Some e;
            e
      in
      let best = Array.make (full + 1) max_int in
      let choice = Array.make (full + 1) (-1) in
      best.(0) <- 0;
      (* total < bound iff best.(full) < headroom *)
      let headroom = bound - relation_costs in
      let exception Dead_layers in
      (try
         for k = 1 to n do
           let layer_live = ref false in
           (* enumerate the popcount-k subsets with Gosper's hack *)
           let s = ref ((1 lsl k) - 1) in
           let continue = ref true in
           while !continue do
             let sv = !s in
             Budget.tick budget;
             (* cheapest live predecessor; in connected mode the peeled
                atom must share a variable with the remaining prefix *)
             let best_prev = ref max_int and arg = ref (-1) in
             for i = 0 to n - 1 do
               if sv land (1 lsl i) <> 0 then begin
                 let p = sv lxor (1 lsl i) in
                 let bp = best.(p) in
                 if
                   bp < !best_prev
                   && ((not connected) || p = 0 || Mask.intersects amask.(i) (mask_of p))
                 then begin
                   best_prev := bp;
                   arg := i
                 end
               end
             done;
             if !best_prev < max_int && !best_prev < headroom then begin
               let cells =
                 if sv = full then begin
                   (* terminal state: within this DP it ends every
                      ordering, and across candidates no minimal
                      rewriting's body contains another's — so count the
                      final join instead of materializing it.  (The
                      predecessor chosen by [arg] is already
                      materialized: its [best] was computed above.)  The
                      count is memoized in the cells-only namespace,
                      where no later DP can mistake it for an entry to
                      extend. *)
                   let count () =
                     let p = full lxor (1 lsl !arg) in
                     let prev =
                       match entries.(p) with Some e -> e | None -> entry_of p
                     in
                     count_cells !arg prev
                   in
                   match memo with
                   | None -> count ()
                   | Some m ->
                       Subplan.cells_or_add m (cells_key 't' (Array.to_list codes)) count
                 end
                 else (entry_of sv).Subplan.cells
               in
               let c = !best_prev + cells in
               if c < headroom then begin
                 best.(sv) <- c;
                 choice.(sv) <- !arg;
                 layer_live := true
               end
             end;
             if sv = full then continue := false
             else begin
               let c = sv land -sv in
               let r = sv + c in
               let nxt = ((r lxor sv) lsr 2) / c lor r in
               if nxt > full then continue := false else s := nxt
             end
           done;
           (* every state of this layer is dead: no completion can beat
              the incumbent, abandon the whole DP *)
           if not !layer_live then raise Dead_layers
         done
       with Dead_layers -> ());
      if best.(full) = max_int then None
      else begin
        let rec rebuild s acc =
          if s = 0 then acc
          else
            let i = choice.(s) in
            rebuild (s lxor (1 lsl i)) (atoms.(i) :: acc)
        in
        Some (rebuild full [], best.(full) + relation_costs)
      end
    end
  end

let optimal_pruned ?memo ?budget ?bound db body =
  dp ~connected:false ?memo ?budget ?bound db body

let optimal ?memo ?budget db body =
  match dp ~connected:false ?memo ?budget db body with
  | Some r -> r
  | None -> assert false (* without a bound the unrestricted DP always succeeds *)

let optimal_exhaustive db body =
  match Orderings.permutations body with
  | [] -> ([], 0)
  | perms ->
      List.fold_left
        (fun (best_order, best_cost) order ->
          let c = cost_of_order db order in
          if c < best_cost then (order, c) else (best_order, best_cost))
        ([], max_int) perms

let optimal_connected ?memo ?budget ?bound db body =
  dp ~connected:true ?memo ?budget ?bound db body

(* -- estimated-size mode -------------------------------------------- *)

(* The same subset DP driven by [Estimate] join profiles instead of
   materialized intermediate relations.  [Estimate.join_profiles] is
   commutative but not associative (distinct counts are capped by the
   running cardinality), so a subset's profile is made well-defined by
   fixing a canonical atom indexing (sorted by rendering, ties by
   position) and folding every subset along its lowest-bit chain; both
   the DP and [estimated_cost_of_order] account against these canonical
   profiles, so the cost of the returned order re-evaluates to the
   returned cost. *)
let est_setup est body =
  let n = List.length body in
  let atoms = Array.of_list body in
  let ids0 = Array.map Atom.to_string atoms in
  let perm = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      match String.compare ids0.(i) ids0.(j) with
      | 0 -> Int.compare i j
      | c -> c)
    perm;
  let atoms = Array.map (fun i -> atoms.(i)) perm in
  let aprof = Array.map (Estimate.atom_profile est) atoms in
  let full = (1 lsl n) - 1 in
  let profiles = Array.make (full + 1) None in
  let rec profile_of s =
    if s = 0 then Estimate.unit_profile
    else
      match profiles.(s) with
      | Some p -> p
      | None ->
          let bit = s land -s in
          let p =
            Estimate.join_profiles
              (profile_of (s lxor bit))
              aprof.(lowest_index bit)
          in
          profiles.(s) <- Some p;
          p
  in
  let cells s =
    let p = profile_of s in
    Estimate.profile_card p *. float_of_int (Estimate.profile_width p)
  in
  (atoms, cells)

let estimated_cost_of_order est order =
  let n = List.length order in
  if n = 0 then 0.
  else if n > max_subgoals then width_limit n
  else begin
    let atoms, cells = est_setup est order in
    (* map each atom of the order to an unused canonical index (bodies
       may contain duplicate atoms) *)
    let used = Array.make n false in
    let index_of a =
      let id = Atom.to_string a in
      let rec go i =
        if i >= n then invalid_arg "M2.estimated_cost_of_order: atom not in body"
        else if (not used.(i)) && Atom.to_string atoms.(i) = id then begin
          used.(i) <- true;
          i
        end
        else go (i + 1)
      in
      go 0
    in
    let _, ir =
      List.fold_left
        (fun (s, acc) a ->
          let s = s lor (1 lsl index_of a) in
          (s, acc +. cells s))
        (0, 0.) order
    in
    Estimate.body_relation_cells_est est order +. ir
  end

(* Every ordering's cost includes the relation cells and the full-set
   intermediate result (its last prefix), and every prefix term is
   nonnegative — so this is a valid lower bound on
   [estimated_cost_of_order] over all orders, computable without any
   DP.  An order achieving it is provably optimal. *)
let estimated_lower_bound est body =
  let n = List.length body in
  if n = 0 then 0.
  else if n > max_subgoals then width_limit n
  else begin
    let _, cells = est_setup est body in
    Estimate.body_relation_cells_est est body +. cells ((1 lsl n) - 1)
  end

let optimal_estimated ?budget est body =
  let n = List.length body in
  if n = 0 then ([], 0.)
  else if n > max_subgoals then width_limit n
  else begin
    let atoms, cells = est_setup est body in
    let full = (1 lsl n) - 1 in
    let best = Array.make (full + 1) Float.infinity in
    let choice = Array.make (full + 1) (-1) in
    best.(0) <- 0.;
    for s = 1 to full do
      Budget.tick budget;
      let best_prev = ref Float.infinity and arg = ref (-1) in
      for i = 0 to n - 1 do
        if s land (1 lsl i) <> 0 then begin
          let bp = best.(s lxor (1 lsl i)) in
          if bp < !best_prev then begin
            best_prev := bp;
            arg := i
          end
        end
      done;
      best.(s) <- !best_prev +. cells s;
      choice.(s) <- !arg
    done;
    let rec rebuild s acc =
      if s = 0 then acc
      else
        let i = choice.(s) in
        rebuild (s lxor (1 lsl i)) (atoms.(i) :: acc)
    in
    (rebuild full [], best.(full) +. Estimate.body_relation_cells_est est body)
  end
