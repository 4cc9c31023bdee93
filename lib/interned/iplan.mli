(** Interned relational-algebra plans.

    The integer-coded mirror of {!Vardi_relational.Algebra}: base
    relations are symtab slots, constant symbols are codes. A plan is
    interned {e once} per scan with {!of_algebra} and then executed
    against every image database with {!run}, which performs no string
    work and no per-run validation. *)

type selection =
  | Cols_eq of int * int
  | Cols_neq of int * int
  | Col_eq_const of int * int
  | Col_neq_const of int * int
  | Consts_eq of int * int
  | Consts_neq of int * int

type t =
  | Base of int
  | Domain
  | Empty of int
  | Select of selection * t
  | Project of int array * t
  | Product of t * t
  | Join of (int * int) list * t * t
      (** hash equi-join; mirrors [Algebra.Join] *)
  | Semijoin of (int * int) list * t * t
  | Union of t * t
  | Inter of t * t
  | Diff of t * t

(** [None] when the expression contains a virtual relation or a symbol
    outside the symtab; callers fall back to [Icode.compile_answer]. *)
val of_algebra : Symtab.t -> Vardi_relational.Algebra.t -> t option

val run : Idb.t -> t -> Irel.t
