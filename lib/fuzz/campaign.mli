(** Seeded differential-fuzz campaigns over a domain pool.

    The sweep loop shared by [zapc --fuzz] and the
    parallel-determinism tests: generate [n] programs from [seed]
    (one {!Support.Prng.split} stream per case, split off sequentially
    before any task runs) and push each through the full differential
    {!Oracle}, fanning the cases out over [jobs] domains with
    {!Support.Pool.map}.

    Determinism contract: the returned cases — programs, reports,
    order — are a pure function of [(cfg, gen, trace, n, seed)].  [jobs]
    changes wall-clock time only; reports are byte-identical at any
    domain count.  When the caller has an {!Obs} recorder installed,
    per-case child recorders are merged back in case order, so
    counters are deterministic too. *)

type case = {
  index : int;  (** 1-based case number *)
  program : Ir.Prog.t;
  report : Oracle.report;
}

val run :
  ?cfg:Oracle.cfg ->
  ?gen:Gen.cfg ->
  ?trace:bool ->
  ?jobs:int ->
  n:int ->
  seed:int64 ->
  unit ->
  case list
(** Run the campaign; cases are returned in case order (index 1..n).
    [jobs] defaults to 1 (sequential in the calling domain).
    [trace] (default [false]) draws each case from
    {!Gen.generate_trace} — a random lazy-combinator trace's direct
    lowering — instead of {!Gen.generate}; [gen] is ignored in that
    mode. *)

val divergent : case list -> case list
(** The cases whose oracle report has a divergence or crash. *)

val skipped_runs : case list -> int
(** Total backend runs skipped across the campaign. *)
