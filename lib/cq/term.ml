type const =
  | Int of int
  | Str of string

type t =
  | Var of string
  | Cst of const

let compare_const c1 c2 =
  match (c1, c2) with
  | Int a, Int b -> Int.compare a b
  | Int _, Str _ -> -1
  | Str _, Int _ -> 1
  | Str a, Str b -> String.compare a b

let equal_const c1 c2 = compare_const c1 c2 = 0

let compare t1 t2 =
  match (t1, t2) with
  | Var a, Var b -> String.compare a b
  | Var _, Cst _ -> -1
  | Cst _, Var _ -> 1
  | Cst a, Cst b -> compare_const a b

let equal t1 t2 = compare t1 t2 = 0
let is_var = function Var _ -> true | Cst _ -> false
let is_const = function Cst _ -> true | Var _ -> false
let var_name = function Var x -> Some x | Cst _ -> None

(* The one printer: [Atom] and [Query] build theirs on [bprint], and the
   [Format] printers wrap the same strings. *)
let const_to_string = function Int i -> string_of_int i | Str s -> s
let to_string = function Var x -> x | Cst c -> const_to_string c
let bprint buf t = Buffer.add_string buf (to_string t)
let pp_const ppf c = Format.pp_print_string ppf (const_to_string c)
let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
