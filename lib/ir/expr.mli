(** Elementwise expressions.

    The right-hand side of a normalized array statement is an
    elementwise function [f(A1@d1, ..., As@ds)] of array references at
    constant offsets, scalar variables, constants and the point's own
    index.  Booleans are represented as floats (0. / 1.), with [Select]
    providing elementwise conditional choice, so a single value domain
    (float) suffices for the whole pipeline. *)

type unop =
  | Neg
  | Sqrt
  | Exp
  | Log
  | Sin
  | Cos
  | Abs
  | Floor
  | Not  (** logical negation of a 0/1 float *)
  | Hashrand
      (** [Hashrand x] is a uniform deviate in (0,1) that is a pure
          function of [x] — a deterministic stand-in for per-element
          random number generation (used by the EP benchmark).  Being
          index-determined, it is invariant under any reordering of the
          iteration space, so fusion and loop restructuring preserve
          program results exactly. *)

type binop =
  | Add | Sub | Mul | Div | Pow
  | Min | Max
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type t =
  | Const of float
  | Svar of string  (** scalar variable (config, induction or reduction result) *)
  | Ref of string * Support.Vec.t  (** array reference [A@d] *)
  | Idx of int  (** value of the region index in dimension [i] (1-based), as a float *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Select of t * t * t  (** [Select (c, a, b)] is [a] where [c <> 0.], else [b] *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Left fold over every node of the expression tree (the node itself
    included), preorder. *)

val refs : t -> (string * Support.Vec.t) list
(** All array references, left-to-right, with duplicates preserved
    (reference counts feed the contraction weight w(x,G)). *)

val ref_names : t -> string list
(** Distinct array names referenced. *)

val svars : t -> string list
(** Distinct scalar variables read. *)

val has_idx : t -> bool
(** Whether the expression reads any region index ([Idx]). *)

val map_refs : (string -> Support.Vec.t -> t) -> t -> t
(** Rebuild the expression, replacing every array reference. *)

val rank_consistent : rank:int -> t -> bool
(** All reference offsets (and [Idx] dimensions) agree with [rank]. *)

val apply_unop : unop -> float -> float
val apply_binop : binop -> float -> float -> float

val is_flop : binop -> bool
(** Whether an executed [Binop] counts as a flop in the executors'
    counters ([Exec.Interp], [Spmd]): arithmetic, [Min] and [Max] do;
    comparisons and logical connectives do not.  There, every [Unop]
    counts one and a [Select] none.  The models' static count
    ([Comm.Model.expr_flops]) is a different rule. *)

val nan : float
(** The quiet NaN with bits [Support.Hash64.canonical_nan]
    (0x7FF8000000000000): C's [NAN], which OCaml's [Float.nan]
    (0x7FF8000000000001) is not. *)

val fmin : float -> float -> float
val fmax : float -> float -> float
(** The semantics of [Min]/[Max] (and of the [Rmin]/[Rmax] reduction
    combiners): NaN-propagating, left-biased on ties, and a NaN result
    is {!nan}, the bits the emitted C's [NAN] has ([Hashrand] hashes
    them).  Every executor — both interpreters, the SPMD engine, the
    emitted C — must use exactly these, bit for bit; C's
    [fmin]/[fmax] (which return the non-NaN operand) and OCaml's
    polymorphic [min]/[max] (which disagree with each other on NaN)
    are all wrong here. *)

val hashrand : float -> float
(** The pure PRN function behind [Hashrand] (exposed for tests and for
    scalar-language reference implementations of the benchmarks):
    splitmix64 over the argument's bits, every NaN hashed as
    [Support.Hash64.canonical_nan], so a NaN's sign or payload (which
    cc may produce differently from OCaml, e.g. by folding [a / -b]
    into [-a / b]) never reaches the result. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
