(** Whole programs at the array level.

    A program is a sequence of statements over declared arrays and
    scalars.  Normalized array statements ([Astmt]) are the unit of
    fusion and contraction; reductions, scalar assignments and
    sequential loops delimit the basic blocks on which the optimizer
    runs.  This mirrors the paper's setting: an ASDG "represents a
    single basic block at the array statement level". *)

type array_kind =
  | User  (** declared in the source program *)
  | Compiler  (** temporary inserted during normalization *)

type array_info = {
  name : string;
  bounds : Region.t;  (** allocation domain (includes any border padding) *)
  kind : array_kind;
}

type redop = Rsum | Rprod | Rmin | Rmax

type stmt =
  | Astmt of Nstmt.t
  | Reduce of { target : string; op : redop; region : Region.t; arg : Expr.t }
      (** full-region reduction into a scalar, e.g. [s := +<< \[R\] e] *)
  | Sassign of string * Expr.t
      (** scalar assignment; the expression may not reference arrays *)
  | Sloop of { var : string; lo : int; hi : int; body : stmt list }
      (** sequential (time-step) loop; the induction variable is read
          as a scalar inside the body *)

type t = {
  name : string;
  arrays : array_info list;
  scalars : (string * float) list;  (** declared scalars with initial values *)
  body : stmt list;
  live_out : string list;
      (** arrays and scalars observable after the program ends; arrays
          listed here are never contracted *)
}

val find_array : t -> string -> array_info option
val is_live_out : t -> string -> bool

val validate : t -> (unit, string) result
(** Structural well-formedness: every referenced array/scalar is
    declared (loop variables are in scope within their loop); every
    array reference of every statement stays within the referenced
    array's allocation bounds; scalar assignments reference no arrays
    and no region indices (there is no iteration point to read them
    at); reduction arguments are rank-consistent with the reduction
    region; statement regions are nonempty. *)

(** {1 The program skeleton}

    The optimizer works one basic block at a time, and reduction fusion
    folds the reductions that immediately follow a block into that
    block's loop nest.  Which statements form block [k], and which
    reductions trail it, is decided here, once: every layer that needs
    block or reduction indices (the planners, the scalarizer, the
    communication model, the SPMD engine) reads them from
    {!skeleton}. *)

type reduction = {
  index : int;
      (** position among all the program's reductions, in traversal
          order (the index [Sir.Scalarize.block_plan.absorbed] uses) *)
  target : string;
  op : redop;
  region : Region.t;
  arg : Expr.t;
}

type block = {
  index : int;
      (** position among all the program's blocks, in traversal order *)
  stmts : Nstmt.t list;  (** a maximal run of consecutive [Astmt]s *)
  trailing : reduction list;
      (** the reductions that immediately follow the run in the same
          statement list — the candidates for reduction fusion into
          the block's loop nests *)
}

type node =
  | Block of block
  | Reduction of reduction  (** a reduction that trails no block *)
  | Scalar of string * Expr.t
  | Loop of { var : string; lo : int; hi : int; body : node list }

val skeleton : t -> node list
(** The program body with every maximal [Astmt] run grouped into a
    {!block} that carries its trailing reductions, built in one pass.
    Blocks and reductions are numbered in execution-syntax order: a
    loop body's blocks come where the loop stands, before anything
    that follows the loop.  Flattening each block back into its
    statements and trailing reductions gives [t.body]. *)

val fold : ('a -> node -> 'a) -> 'a -> node list -> 'a
(** Pre-order fold: a [Loop] node is visited before its body, so blocks
    and reductions are visited in index order. *)

val redop_init : redop -> float
(** The identity a reduction's accumulator starts from. *)

val redop_binop : redop -> Expr.binop
(** The binary operator a reduction folds with ([Rmin]/[Rmax] are
    [Expr.Min]/[Expr.Max], NaN-aware as [Expr.apply_binop] defines). *)

val skeleton_blocks : node list -> block list
(** The {!block}s of a skeleton, by index. *)

val blocks : t -> Nstmt.t list list
(** The statements of every {!block}, by index. *)

val reductions : t -> reduction list
(** Every reduction, trailing or not, by index. *)

val map_blocks : (int -> Nstmt.t list -> stmt list) -> t -> t
(** Rewrite each block's statements, by block index, in index order;
    other statements are preserved. *)

val confined_arrays : t -> (string * int) list
(** Arrays that are not live-out, whose every reference occurs in
    exactly one block, and that no reduction reads: the global
    precondition for contraction.  Pairs the array with its block
    index. *)

val confined_arrays_allowing_reduces : t -> node list -> (string * int) list
(** [confined_arrays_allowing_reduces t (skeleton t)] is like
    {!confined_arrays}, but an array may additionally be read by the
    reductions that trail its block (the optimizer may absorb them into
    the block's loop nests).  Used to extend contraction candidacy
    under reduction fusion; the compiler hands in the skeleton it
    already built. *)

val static_array_counts : t -> int * int
(** [(compiler, user)] static array declaration counts (Figure 7). *)

val rename_array : t -> old:string -> new_:string -> t

val fingerprint : t -> string
(** Canonical 16-hex-digit content hash of the normalized AST
    (declarations with bounds and kinds, scalar initial values, every
    statement, the live-out set — everything semantic except the
    program's display [name]), folded through the same
    [Support.Hash64] mixing as the executors' live-out digest.  Two
    programs with equal fingerprints behave identically under every
    backend; the hash is {e stable across releases} (a golden test
    locks it) because it keys the zapd plan cache and names fuzz
    repro files. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
