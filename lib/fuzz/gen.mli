(** Seeded, deterministic random-program generator.

    The differential oracle's input source: array programs over
    regions of rank 1–3 with [@] offsets on reads and writes,
    reductions over all four operators, sequential loops, scalar
    assignments, [Select], and (by default) the NaN-producing
    operations Div, Pow, Log and Sqrt.  The stream is a pure function
    of the {!Support.Prng} state — no global [Random] involved — so a
    seed names a reproducible program forever. *)

type cfg = {
  max_rank : int;  (** region ranks drawn from 1..max_rank (≤ 3) *)
  max_stmts : int;  (** top-level statement budget *)
  max_depth : int;  (** expression tree depth *)
  nan_ops : bool;  (** include Div/Pow/Log/Sqrt in the op pools *)
  offsets : bool;  (** allow @ offsets on references and targets *)
  reductions : bool;
  loops : bool;
  selects : bool;
}

val default : cfg

val generate : ?cfg:cfg -> Support.Prng.t -> Ir.Prog.t
(** Draw the next program from the stream.  The result always passes
    [Ir.Prog.validate]. *)

(** {1 Trace mode}

    Instead of drawing a whole program, draw a random sequence of
    {!Lazyarr.Trace} combinator applications — sources, maps, shifts,
    zips, optionally a reduction sink — and return both the live trace
    (context + sink, for forcing through the lazy frontend) and its
    direct lowering (for replaying through the differential
    {!Oracle}).  Deterministic from the [Prng] stream, like
    {!generate}. *)

type trace_cfg = {
  max_ops : int;  (** combinator budget beyond the initial source *)
  trace_rank : int;  (** ranks drawn from 1..trace_rank (≤ 3) *)
  trace_nan_ops : bool;  (** include Div/Pow/Log/Sqrt in the op pools *)
  trace_reductions : bool;  (** allow a reduction sink *)
}

type sink = Arr of Lazyarr.Trace.arr | Scalar of Lazyarr.Trace.scalar

type traced = {
  ctx : Lazyarr.Trace.ctx;
  sink : sink;
  trace_prog : Ir.Prog.t;
      (** [Lazyarr.Trace.lower_direct] of [sink]: the eager twin whose
          checksum every backend — and the lazy force of [sink] — must
          reproduce.  Always passes [Ir.Prog.validate]. *)
}

val generate_traced :
  ?cfg:trace_cfg -> ?level:Compilers.Driver.level -> Support.Prng.t -> traced
(** [level] (default [C2F3]) configures the trace context's compile
    level — it affects how [sink] will be {e forced}, never
    [trace_prog]. *)

val generate_trace : ?cfg:trace_cfg -> Support.Prng.t -> Ir.Prog.t
(** Just the lowered program of {!generate_traced} (the campaign's
    trace-mode input source). *)
