(** Centralized Obs counter keys of the service layer.

    Every ["service.*"] counter the daemon, engine and plan cache bump
    is declared here — emission sites reference these values, never
    string literals — and {!all} enumerates the complete set so a unit
    test can assert it is collision-free, both internally and against
    the counter names the rest of the pipeline emits. *)

val prefix : string
(** ["service."] — every key below starts with it (asserted in
    tests), which keeps the family disjoint from the optimizer's
    [fusion.*] / [contraction.*] / [plan.*] counters by construction. *)

val request_compile : string
val request_run : string
val request_plan : string
val request_batch : string
val request_stats : string
val request_shutdown : string

val cache_hit : string
val cache_miss : string
val cache_eviction : string
val cache_insertion : string

val compile_computed : string
(** Cold compiles actually performed (cache hits perform none). *)

val plan_computed : string
(** Cold planner searches actually performed — the expensive work the
    cache amortizes; warm replays leaving this at zero prove search
    requests are served without re-planning. *)

val native_build : string
(** Cold native builds: one cc compile-and-link of a plan's emitted C
    translation unit.  Warm replays leaving this at zero prove native
    runs are served from the artifact cache without recompiling. *)

val native_reuse : string
(** Native artifacts served without a build — from the per-plan slot,
    the store memo, or adopted from a previous process's store. *)

val native_run : string
(** Executions of a native runner (each run is one subprocess). *)

val protocol_error : string

val requests : string list
(** The six [request_*] keys: the per-verb counts of a Stats reply. *)

val cache : string list
(** The four [cache_*] keys, which {!Cache} counts itself. *)

val all : string list
(** Every key above, each exactly once. *)
