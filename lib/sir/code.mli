(** The scalar intermediate representation.

    Scalarization (paper §4.2) turns each fusible cluster into one loop
    nest over explicit scalar loads and stores.  This IR is what a
    scalarized array program looks like just before native code
    generation; our instrumented interpreter executes it directly, and
    {!Emit_c} prints it as a runnable C program.

    Loop index variables are reserved names [__i1 .. __in], one per
    array dimension; the frontend rejects user identifiers beginning
    with [__] so no capture can occur. *)

type subscript = {
  base : string;  (** loop variable name, [""] for an absolute index *)
  off : int;
}
(** One dimension of an array subscript: [base + off]. *)

type expr =
  | Const of float
  | Scalar of string
      (** scalar variable, contraction temporary, or loop index *)
  | Load of string * subscript array
  | Unop of Ir.Expr.unop * expr
  | Binop of Ir.Expr.binop * expr * expr
  | Select of expr * expr * expr

type stmt =
  | Sassign of string * expr  (** scalar := e *)
  | Store of string * subscript array * expr  (** A[subs] := e *)
  | For of { var : string; lo : int; hi : int; step : int; body : stmt list }
      (** [step] is [+1] (ascending, [lo..hi]) or [-1] (descending,
          [hi..lo]); bounds are inclusive in both cases *)

type alloc = {
  name : string;
  dims : (int * int) array;  (** inclusive per-dimension bounds *)
}

type program = {
  name : string;
  allocs : alloc list;  (** arrays still allocated after contraction *)
  scalars : (string * float) list;  (** declared scalars and contraction temporaries, with initial values *)
  body : stmt list;
  live_out : string list;
}

val loop_var : int -> string
(** [loop_var d] is the reserved index name for array dimension [d]
    (1-based): ["__i<d>"]. *)

val alloc_volume : alloc -> int
(** Number of elements. *)

val program_elements : program -> int
(** Total allocated array elements — the memory-footprint figure used
    by the Figure 8 experiments. *)

val count_loops : program -> int
(** Number of [For] loops (for tests on fusion's effect on code shape). *)

val count_nests : program -> int
(** Number of outermost loop nests in straight-line positions — fused
    programs have fewer nests. *)
