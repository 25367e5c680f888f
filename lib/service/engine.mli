(** The request engine: one [handle] function behind {!Api}.

    Every consumer of the compiler pipeline — [zapc] running locally,
    [zapd] serving a socket, the lazy frontend — goes through the same
    engine ([handle : t -> Api.request -> Api.response], or
    {!compile_ir} for an already-elaborated program), so the semantics
    of a request cannot depend on who asked.  The engine owns the plan
    cache: compile and plan work is keyed by
    [(Ir.Prog.fingerprint, planning mode, machine, procs)] and
    memoized in an LRU ({!Cache}), so a warm engine serves
    [--plan search] requests without re-running the search (the
    ["service.plan.computed"] counter stays flat).  A
    [Run {native = true}] additionally compiles the plan's emitted C
    into a runner executable, content-addressed in a {!Native.Store}
    and slotted next to the plan in the same cache entry, so a warm
    engine re-executes native code with zero [cc] invocations
    (["service.native.build"] stays flat).  Concurrent misses on one
    plan coalesce in {!Cache.find_or_compute}, and concurrent first
    builds of one runner in {!Native.Store.get}; the engine itself
    keeps no in-flight state.

    Determinism: responses are a pure function of the request — cache
    state, domain count and request interleaving never leak into a
    reply.  Cheap per-request work (simplify, dump rendering, perf
    measurement, SPMD execution) is recomputed on every request; only
    the deterministic compile/plan result is cached.

    Counters are atomics, one per {!Metrics} key outside
    {!Metrics.cache} (the plan cache counts those itself), mirrored
    into [Obs] by {!sync_obs}, which [handle] calls on the serving
    domain whenever a recorder is installed. *)

type t

val create : ?capacity:int -> ?jobs:int -> ?native_root:string -> unit -> t
(** [capacity] bounds the plan cache (default as {!Cache.create});
    [jobs] (default [Support.Pool.default_domains ()]) bounds the
    domains used for [Batch] fan-out and search-planner candidate
    costing;
    [native_root] (default {!Native.Store.default_root}) is where
    native artifacts are content-addressed — each cache entry carries
    its artifact next to the plan, and a root that survives restarts
    lets a fresh engine adopt previously compiled runners without
    invoking [cc]. *)

val jobs : t -> int

val handle : t -> Api.request -> Api.response
(** Never raises: every failure is a [Failed] response.  [Batch]
    requests fan out over a domain pool ([jobs] wide) with replies in
    request order; nested batches are handled sequentially within
    their worker.  [Shutdown] only answers [Shutting_down] — process
    exit is the server's decision. *)

type lookup = {
  hit : bool;  (** the plan cache counted a hit for this call, else a miss *)
  compiled : bool;
      (** this call compiled the program (["service.compile.computed"]);
          a miss that waited for another caller's compute did not *)
  planned : bool;
      (** ...and ran the search or ILP planner
          (["service.plan.computed"]) *)
}

val compile_ir :
  t ->
  opts:Api.compile_opts ->
  target:Api.target ->
  Ir.Prog.t ->
  ( string * Compilers.Driver.compiled * Plan.Driver.provenance option * lookup,
    Obs.Diagnostic.t )
  result
(** In-process compile of an already-elaborated program through the
    same plan cache as a [Compile] request — the entry the lazy
    frontend ([Lazyarr.Trace]) flushes through.  Returns the
    program's fingerprint (the cache key component), the compiled
    result, planner provenance when [opts.plan] is [Search] or [Ilp],
    and what this call itself did in the cache, whatever other domains
    do meanwhile.  [opts.merge] and [opts.simplify] are ignored (the
    caller owns any program-level rewrites); counters advance exactly
    as for a served request, and [sync_obs] runs before returning. *)

val cache_stats : t -> Cache.stats

val server_stats : t -> Api.server_stats
(** The payload of a [Stats] reply (also available without a request
    round-trip, for in-process callers). *)

val note_protocol_error : t -> unit
(** Bumped by the server for lines that fail {!Api.request_of_line}. *)

val sync_obs : t -> unit
(** Mirror the global counters into the current domain's [Obs]
    recorder (no-op when none is installed): each {!Metrics} key
    advances by the delta since the last mirror. *)
