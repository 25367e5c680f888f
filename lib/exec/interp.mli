(** Instrumented interpreter for the scalar IR.

    Executes a {!Sir.Code.program} exactly as the generated loop nests
    prescribe, while counting array loads/stores and floating-point
    operations and (optionally) emitting the full memory-reference
    trace.  The trace feeds the cache simulator: contracted arrays have
    become scalars, so their former references produce {e no} memory
    traffic — precisely the effect the paper measures.

    Each {!run} resolves the program once, then executes it.  Resolving
    allocates the arrays, gives every scalar name a slot in one float
    array (plus an int mirror for each loop variable no assignment
    writes, which its subscripts read), binds every array reference to
    its allocation, and turns each statement into an OCaml closure with
    its load and flop counts precomputed; the traced and untraced
    closures are built apart.  Executing runs the closures.  All of
    this state belongs to the one call, so concurrent runs are
    independent.

    Array elements are modelled as 8-byte doubles laid out row-major;
    each allocation gets a disjoint base address.  Out-of-bounds
    subscripts raise — the interpreter doubles as a scalarizer
    validator.  Every [Runtime_error] (out of bounds, rank mismatch,
    undefined scalar or array) still fires only when the offending
    statement executes, after the trace events of everything before
    it: a loop that never runs raises nothing. *)

type counters = {
  mutable loads : int;  (** array element reads *)
  mutable stores : int;  (** array element writes *)
  mutable flops : int;  (** arithmetic operations *)
  mutable iters : int;  (** innermost statement executions *)
}

type result

exception Runtime_error of string

val run :
  ?trace:(addr:int -> write:bool -> unit) ->
  Sir.Code.program ->
  result
(** Execute the program on zero-initialized arrays.  [trace] receives
    the byte address of every array element access, in execution
    order. *)

val counters : result -> counters

val get_scalar : result -> string -> float
(** Final value of a scalar (including contraction temporaries).
    Raises [Runtime_error] if undefined. *)

val get_array : result -> string -> float array
(** Final contents of an allocated array, row-major.  Raises
    [Runtime_error] if the array was contracted away or undeclared. *)

val read_point : result -> string -> int array -> float
(** One element by its original (bounds-relative) index. *)

(** The live-out digest shared by every executor in the repo (this
    interpreter, {!Refinterp}, the SPMD backend): mixing the same
    values in the same order yields the same checksum. *)
module Digest : sig
  type t

  val empty : t
  val mix : t -> float -> t
  val to_hex : t -> string
end

val checksum : result -> string
(** {!Digest} of every live-out value, in [live_out] order and
    row-major within each array — two observationally equivalent runs
    produce identical checksums. *)

val footprint_bytes : Sir.Code.program -> int
(** Bytes of array storage the program allocates (8 per element). *)
