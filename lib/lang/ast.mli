(** Abstract syntax of the workload language.

    A small structured language — integers, scalar variables, global
    arrays, functions with recursion, loops, and conditionals — rich enough
    to express the paper's workloads. Branches on secret data are marked
    [secret]; the compiler turns them into sJMP/eosJMP regions (SeMPE), or
    the CTE / Raccoon / MTO transforms remove them.

    Logical [Land]/[Lor] are {e non-short-circuiting} (they evaluate both
    operands and combine boolean values arithmetically) so that using them
    never introduces a hidden conditional branch. *)

type unop = Neg | Lnot

type binop =
  | Add | Sub | Mul | Div | Rem
  | Band | Bor | Bxor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor

type expr =
  | Int of int
  | Var of string
  | Index of string * expr               (** [A[i]] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list
  | Select of expr * expr * expr
      (** [Select (c, a, b)] is [a] when [c <> 0] else [b]; compiled to a
          conditional move — never a branch. *)

type stmt =
  | Assign of string * expr
  | Store of string * expr * expr        (** [A[i] <- e] *)
  | If of { secret : bool; cond : expr; then_ : block; else_ : block }
  | While of expr * block
  | For of string * expr * expr * block  (** [for v = lo while v < hi; v++] *)
  | Expr of expr                         (** evaluate for side effects *)
  | Return of expr

and block = stmt list

type func = {
  fname : string;
  params : string list;
  locals : string list;
  body : block;
}

type array_decl = {
  aname : string;
  size : int;
  scratch : bool;
      (** scratch arrays are exempt from ShadowMemory privatization: the
          program promises every path fully writes them before reading and
          their contents are dead outside the secure region *)
}

type program = {
  funcs : func list;
  globals : string list;       (** scalar globals *)
  arrays : array_decl list;
  secrets : string list;       (** globals that hold secret values *)
  main : string;               (** entry function, called with no arguments *)
}

(** {2 Convenience constructors} *)

val i : int -> expr
val v : string -> expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( %: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( =: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val ( &&: ) : expr -> expr -> expr
val ( ||: ) : expr -> expr -> expr
val idx : string -> expr -> expr
val assign : string -> expr -> stmt
val store : string -> expr -> expr -> stmt
val if_ : ?secret:bool -> expr -> block -> block -> stmt
val while_ : expr -> block -> stmt
val for_ : string -> expr -> expr -> block -> stmt
val ret : expr -> stmt
val call : string -> expr list -> expr

(** {2 Structural queries} *)

module Sset : Set.S with type elt = string

val block_fold : ('a -> stmt -> 'a) -> 'a -> block -> 'a
(** Pre-order fold over every statement, including nested blocks. *)

val expr_reads : expr -> Sset.t
(** Scalar variables read by an expression. *)

val expr_has_call : expr -> bool

val block_assigned : block -> Sset.t
(** Scalars assigned anywhere in the block (including nested blocks). *)

val block_reads : block -> Sset.t
(** Scalars read anywhere in the block. *)

val block_stored_arrays : block -> Sset.t

val subst_scalar : old:string -> fresh:string -> block -> block
(** Rename every read and write of scalar [old] to [fresh], recursively. *)

val subst_array : old:string -> fresh:string -> block -> block

val find_func : program -> string -> func
(** @raise Not_found *)

val validate : program -> unit
(** Checks that every referenced function, scalar and array is declared,
    arity matches, and [For] variables are declared locals.
    @raise Invalid_argument with a diagnostic otherwise. *)

val pp_expr : Format.formatter -> expr -> unit
val pp_program : Format.formatter -> program -> unit
