(** Terms of conjunctive queries: variables and constants.

    Following the paper's conventions, names beginning with an upper-case
    letter denote variables and names beginning with a lower-case letter
    denote constants; the parser enforces this, but the abstract syntax
    here places no restriction on spelling. *)

(** A constant is either an integer or a symbolic constant.  The same type
    doubles as the value domain of the relational engine (a database stores
    tuples of constants). *)
type const =
  | Int of int
  | Str of string

type t =
  | Var of string  (** a variable, e.g. [X] *)
  | Cst of const  (** a constant, e.g. [anderson] or [42] *)

val compare_const : const -> const -> int
val equal_const : const -> const -> bool
val compare : t -> t -> int
val equal : t -> t -> bool

val is_var : t -> bool
val is_const : t -> bool

(** [var_name t] is [Some x] when [t] is [Var x]. *)
val var_name : t -> string option

(** [bprint buf t] appends [to_string t] to [buf]: the printer every
    rendering of terms, atoms and queries goes through. *)
val bprint : Buffer.t -> t -> unit

val pp_const : Format.formatter -> const -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val const_to_string : const -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
