(** Instrumented interpreter for the scalar IR.

    Executes a {!Sir.Code.program} exactly as the generated loop nests
    prescribe, while counting array loads/stores and floating-point
    operations and (optionally) emitting the full memory-reference
    trace.  The trace feeds the cache simulator: contracted arrays have
    become scalars, so their former references produce {e no} memory
    traffic — precisely the effect the paper measures.

    Each {!run} resolves the program once, then executes it.  Resolving
    allocates the arrays (or takes them from [run]'s [storage];
    {!run_over} takes the caller's instead), gives
    every scalar name a slot in one float array (plus an int mirror for
    each loop variable no assignment writes, which its subscripts read),
    binds every array reference to its allocation, and turns each
    statement into an OCaml closure with its load and flop counts
    precomputed; the traced and untraced closures are built apart.
    Executing runs the closures.  All of this state but the caller's
    arrays belongs to the one call, so concurrent runs over distinct
    arrays are independent.

    {b Strips.}  An untraced run executes an innermost loop (a [For]
    with no loop in its body) one statement at a time over strips of
    {!strip} consecutive iterations, into unboxed float buffers, when
    the loop passes a static test at resolve time and an entry check
    each time it starts.  Any other loop runs its element closures
    above: every loop of a traced run, loops that fail the test, and
    loop instances whose entry check fails.  The static test:
    - every subscript base is [""] or the variable of this loop or of
      an enclosing loop that no [Sassign] of the program writes (the
      int-mirror condition);
    - every referenced array is allocated and every reference has the
      array's rank;
    - every array the body stores to is referenced in the body, by
      loads and stores alike, through one identical subscript that
      contains this loop's variable;
    - every scalar an [Sassign] of the body writes is written once, is
      not read earlier in the body (its own right-hand side included),
      and is not a loop variable: it is private to the iteration.

    The entry check evaluates every reference's subscripts at the
    first and the last iteration (each dimension is the loop variable
    plus an offset, or invariant in the loop, so in bounds at both
    ends is in bounds throughout) and checks that every invariant
    scalar the body reads that is neither declared nor a loop
    variable is defined.  If either fails, the instance runs its
    element closures, with nothing done first.  Otherwise no
    statement of the loop can raise, and the loop leaves the state
    the last executed iteration leaves ([hi] ascending, [lo]
    descending): the loop variable's slots, each private scalar's
    value and definedness, and the four counters, added once as trip
    × the static per-iteration counts.  A zero-trip loop changes
    nothing.

    Why strip order is exact.  Under the test, iteration [i] touches
    only its own element of every stored array; every other array it
    reads, the loop never writes.  So an operand statement [s] reads
    at iteration [i] is: an element of an unwritten array (the same in
    any order); its own element of a stored array, which since the loop
    started only the statements before [s] in iteration [i] have
    written, in either order; a private scalar, which a statement
    before [s] in iteration [i] wrote; the loop variable; or a loop
    invariant.  Each statement
    therefore performs the same float operations on the same operands
    in strip order as in loop order, with [Add], [Sub], [Mul], [Div]
    and [Neg] as the same OCaml primitives and every other operator
    through the same [Ir.Expr] function; and since nothing raises,
    only the final state is observable.

    Why unchecked access is sound.  A strip pass reads and writes its
    operands without a bounds check per element.  Each operand is an
    array reference (a view), a dense buffer or a loop invariant, and
    its index is linear in the iteration: a view's elements are the
    reference's at the strip's iterations, all of them inside the loop's
    range, where the entry check has shown every reference in bounds; a
    buffer has {!strip} elements and a strip at most {!strip}
    iterations; an invariant is one element read at step 0.  Each pass
    still checks, once per strip, that every operand's first and last
    element lie inside its array, and raises [Invalid_argument]
    otherwise, before it touches anything.  By the argument above that
    check never fails; it guards memory against a defect in the strip
    path itself, and never replaces the entry check, whose failure runs
    the element closures with their [Runtime_error] texts.

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

val strip : int
(** Iterations per strip on the strip path. *)

val run :
  ?trace:(addr:int -> write:bool -> unit) ->
  ?storage:(Sir.Code.alloc -> float array) ->
  Sir.Code.program ->
  result
(** Execute the program on zero-initialized arrays.  [trace] receives
    the byte address of every array element access, in execution
    order.

    [storage a] supplies the data of allocation [a]; it is called once
    per allocation, in [allocs] order, before anything runs, and
    defaults to {!fresh_storage}.  It must return an array of
    {!fresh_storage}'s length ([Invalid_argument] otherwise) that holds
    0.0 in every element and serves no other allocation of the run, so
    the run still starts from zero-initialized arrays.  The run reads
    and writes it in place and the result holds it, as {!get_array}
    says.  A caller may hand the same array, zero-filled again, to a
    later run; from then on it must not read that array through this
    result, since the later run leaves its own values there. *)

val fresh_storage : Sir.Code.alloc -> float array
(** A new zero-filled array of [max 1 (alloc_volume a)] elements: the
    default [storage] of {!run}. *)

val run_over :
  ?trace:(addr:int -> write:bool -> unit) ->
  (string * int * (int * int) array * float array) list ->
  Sir.Code.program ->
  result
(** [run_over arrays p] executes [p] as {!run} does, but over the
    caller's arrays instead of allocating [p.allocs], which it ignores.
    Each array is [(name, base, dims, data)]: its element base address,
    its inclusive per-dimension bounds, and its row-major data of at
    least their volume, read and written in place.  Opens no {!Obs}
    span and records no counter, so a caller can run many programs
    (the SPMD engine runs one per statement and processor) without
    them showing as interpreter runs. *)

val counters : result -> counters

val get_scalar : result -> string -> float
(** Final value of a scalar (including contraction temporaries).
    Raises [Runtime_error] if undefined. *)

val get_array : result -> string -> float array
(** Final contents of an allocated array, row-major: the result's own
    array, not a copy, so writing to it changes what {!checksum} and
    {!read_point} see.  Raises [Runtime_error] if the array was
    contracted away or undeclared. *)

val read_point : result -> string -> int array -> float
(** One element by its original (bounds-relative) index. *)

(** The live-out digest shared by every executor in the repo (this
    interpreter, {!Refinterp}, the SPMD backend): mixing the same
    values in the same order yields the same checksum. *)
module Digest : sig
  type t

  val empty : t
  val mix : t -> float -> t

  val mix_array : t -> float array -> t
  (** [Array.fold_left mix], in one loop that allocates nothing. *)

  val to_hex : t -> string
end

val checksum : result -> string
(** {!Digest} of every live-out value, in [live_out] order and
    row-major within each array — two observationally equivalent runs
    produce identical checksums. *)

val footprint_bytes : Sir.Code.program -> int
(** Bytes of array storage the program allocates (8 per element). *)
