(** Centralized Obs counter keys of the lazy frontend.

    Same discipline as {!Service.Metrics}: every ["lazy.*"] counter the
    trace layer bumps is declared here — emission sites reference these
    values, never string literals — and {!all} enumerates the complete
    set so a unit test can assert it is collision-free, both internally
    and against the service-layer keys. *)

val prefix : string
(** ["lazy."] — every key below starts with it (asserted in tests),
    which keeps the family disjoint from the ["service.*"] /
    ["fusion.*"] / ["plan.*"] counters by construction. *)

val flush : string
(** Flushes performed (each lowers one trace cone to an [Ir.Prog] and
    executes it). *)

val op_recorded : string
(** Combinator applications recorded into a trace. *)

val op_lowered : string
(** Trace ops lowered across all flushes: each op of a flushed cone,
    whether it became a statement or was forwarded (see
    {!op_forwarded}).  One op can be lowered more than once: a cone is
    recomputed when a previously contracted intermediate is observed
    later. *)

val op_elided : string
(** Ops a flush passed over — recorded since the previous flush and
    outside the observed cone — i.e. the dead-op elision the lowering
    performs.  Each op counts at most once across a context's
    lifetime. *)

val op_forwarded : string
(** Lowered ops that got no statement and no array: unobserved shift
    and identity ops, which their readers read in place as
    [ancestor@offset] references.  A subset of {!op_lowered}. *)

val param_lifted : string
(** Constants lifted to parameter scalars during canonical lowering —
    the rewrite that makes repeated trace {e shapes} share one plan
    cache entry. *)

val force : string
(** Observations ([force] / [force_scalar] / [checksum]). *)

val force_memo : string
(** Observations answered from already-materialized values (no
    flush). *)

val all : string list
(** Every key above, each exactly once. *)
