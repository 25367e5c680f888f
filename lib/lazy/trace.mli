(** The lazy array-expression frontend: runtime fusion.

    Every other consumer of the pipeline hands it a whole program; this
    module serves the regime "Fusion of Array Operations at Runtime"
    (Kristensen et al.) describes — operations arrive {e one at a
    time}, and the system batches, shape-checks and fuses them
    dynamically.  Combinators ({!gen}, {!map}, {!zip_with}, {!shift},
    {!reduce}) do no array work: each records one op, after
    shape-checking it so errors surface at the offending call.  An op
    points at the operands its expression reads, so the caller's
    handles keep the op graph alive; the context keeps only what an
    explicit {!flush} may still have to compute.  Array work happens
    at a {e flush} — triggered by an observation ({!force},
    {!force_scalar}, {!checksum}) or by an explicit {!flush} — which

    {ol
    {- lowers the cone of the observation — the ops it reads, and the
       ops those read — to an {!Ir.Prog} (ops outside the cone are
       elided — dead temporaries cost nothing);}
    {- reads every unobserved op whose value is a bare reference to
       one operand (a {!shift}, an identity {!map}, a {!zip_with}
       returning one operand) in place, as an [@]-offset reference to
       its first materialized ancestor, so it costs no loop and no
       array;}
    {- lifts every constant to a parameter scalar and renames ops
       canonically, so two flushes with the same trace {e shape} (same
       structure, different constants) lower to byte-identical
       programs with equal {!Ir.Prog.fingerprint}s;}
    {- compiles through {!Service.Engine}'s fingerprint-keyed plan
       cache — a repeated shape reuses the cached fusion/contraction
       plan with zero re-planning — and executes the compiled code
       under {!Exec.Interp} with the actual constants bound back.}}

    Intermediate ops inside a cone are compiler temporaries: the
    optimizer fuses their loops and contracts their storage exactly as
    it would for a whole-program input.  Observed results are
    memoized, for as long as their handle lives; re-forcing is free.
    A node observed {e after} some flush already consumed it is
    recomputed from the ops its handle keeps alive — all ops are pure,
    so recomputation is exact.

    Instrumentation: flushes run under [Obs] spans ["lazy.flush"] /
    ["lazy.lower"] / ["lazy.execute"] and bump the {!Metrics}
    counters; the engine mirrors its cache hit/miss counters alongside
    (see {!Service.Metrics}). *)

exception Shape_error of string
(** Raised at the offending combinator when an op fails shape
    validation (rank mismatch, region mismatch, a read escaping the
    producer's domain, cross-context mixing, an expression referencing
    anything but the operands it was given). *)

type ctx
(** A trace context: the engine handle, the compile configuration
    (level / plan mode / target), the {!stats}, the pending sinks
    and unforced reductions an explicit {!flush} would compute, and the
    storage of its last flush's temporaries.  Every other op lives only
    as long as a handle reaches it, so a context that streams flushes
    and drops its handles runs in bounded memory.

    A flush runs its compiled program over that storage: each array the
    program allocates outside its live-out set takes over the
    zero-filled array of an equal allocation (same name and bounds) of
    the previous flush, and every observed array is fresh, since its
    node memoizes it.  The context then keeps this flush's temporaries
    only: at most 8 bytes per element of one program's non-live-out
    allocations.  Storage is never shared between contexts; a context,
    like its stats, belongs to one domain at a time. *)

type arr
(** A lazy array: a handle to one trace op, which keeps the ops it
    reads alive, and its forced value once there is one. *)

type scalar
(** A lazy scalar: the pending result of a {!reduce}. *)

val create :
  ?name:string ->
  ?engine:Service.Engine.t ->
  ?level:Compilers.Driver.level ->
  ?plan:Service.Api.plan_mode ->
  ?target:Service.Api.target ->
  unit ->
  ctx
(** Fresh context.  [engine] defaults to a private single-domain
    {!Service.Engine.create}; pass a shared engine to pool plan-cache
    state across contexts (that sharing is what a daemon does).
    [level] defaults to [C2F3], [plan] to [Greedy], [target] to
    {!Service.Api.default_target} ([target] keys and prices the plan
    under [Ilp]; the greedy ladder ignores it). *)

val engine : ctx -> Service.Engine.t

(** {1 Combinators}

    All validate at record time and raise {!Shape_error} on the
    offending op.  The expression callbacks receive placeholder
    expressions standing for one element of each operand and must
    build the result from them ({!Ir.Expr} constants, arithmetic,
    [Select], [Idx] — but no new array references and no scalar
    variables). *)

val gen : ctx -> Ir.Region.t -> Ir.Expr.t -> arr
(** [gen ctx r e] is the array whose element at index [i in r] is
    [e] evaluated at [i] — the expression may use [Ir.Expr.Idx] and
    constants only.  The trace's source nodes. *)

val map : ?region:Ir.Region.t -> (Ir.Expr.t -> Ir.Expr.t) -> arr -> arr
(** Elementwise function of one array.  [region] defaults to the
    operand's region and must be contained in it. *)

val zip_with :
  ?region:Ir.Region.t ->
  (Ir.Expr.t -> Ir.Expr.t -> Ir.Expr.t) ->
  arr ->
  arr ->
  arr
(** Elementwise function of two arrays (same context).  [region]
    defaults to the intersection of the operands' regions and must be
    contained in both; an empty default intersection is a
    {!Shape_error}. *)

val shift : Support.Vec.t -> arr -> arr
(** [shift d a] reads [a] at constant offset [d]: element [i] of the
    result is [a@d], i.e. [a[i + d]].  The result's region is [a]'s
    region translated by [-d] (exactly the indices at which the read
    stays inside [a]'s domain).  A flush that does not observe the
    shift copies nothing: its readers read [a] (or [a]'s own first
    materialized ancestor) at the summed offset. *)

val reduce : ?region:Ir.Region.t -> Ir.Prog.redop -> arr -> scalar
(** Full-region reduction of an array into a scalar.  [region]
    defaults to the operand's region and must be contained in it. *)

val region_of : arr -> Ir.Region.t

(** {1 Observation}

    Each observation forces the value: if the node is already
    materialized the memoized value is returned (no flush); otherwise
    the node's cone is flushed. *)

val force : arr -> float array
(** Row-major contents over the array's region. *)

val force_scalar : scalar -> float

val checksum : arr -> string
(** {!Exec.Interp.Digest} of the array's elements in row-major order —
    equal to the live-out checksum of any executor running a program
    whose live-out set is exactly this array. *)

val scalar_checksum : scalar -> string

val flush : ctx -> unit
(** Materialize every pending sink (an op no recorded op reads and
    nothing has forced) and every unforced reduction in one batched
    program — multi-output fusion.  A context with no pending sink is
    a no-op. *)

(** {1 Lowering (exposed for tests, the fuzzer and the bench)} *)

val lower_direct : ctx -> arr -> Ir.Prog.t
(** The eager equivalent of forcing [a]: the cone of [a] lowered with
    constants inline (no parameter lifting) and live-out [= a].  It
    shares the flush's lowering otherwise: an unobserved shift or
    identity op gets no statement and no array, and its readers read
    its first materialized ancestor at the summed offset; [a] itself
    always has its array.  Running it under any executor must produce
    {!checksum}[ a] — the differential property the trace-mode fuzzer
    and the qcheck suite replay.  Does not flush and records
    nothing. *)

val lower_direct_scalar : ctx -> scalar -> Ir.Prog.t

(** {1 Statistics} *)

type stats = {
  flushes : int;
  ops_recorded : int;
  ops_lowered : int;  (** cone ops lowered across all flushes *)
  ops_elided : int;
      (** ops a flush passed over: recorded since the previous flush
          and outside its cone (dead at that observation; each op
          counts at most once) *)
  ops_forwarded : int;
      (** lowered ops read in place, with no statement and no array:
          unobserved shift and identity ops *)
  params_lifted : int;
  forces : int;
  memo_hits : int;
  cache_hits : int;
      (** plan-cache hits of this context's flushes; other contexts on
          a shared engine count their own *)
  cache_misses : int;
  compiles_computed : int;  (** compiles this context's flushes ran *)
  plans_computed : int;
  last_fingerprint : string option;
      (** fingerprint of the last flushed program — equal across
          flushes of equal trace shape *)
}

val stats : ctx -> stats
