(** A fixed-size OCaml 5 domain pool with deterministic, ordered
    result collection.

    The sweep drivers (fuzz campaigns, bench matrices, planner cost
    evaluations) are embarrassingly parallel: many independent tasks,
    one result each, order of *completion* irrelevant but order of
    *reporting* contractual.  A batch runs tasks on a fixed set of
    domains and returns results in task order, so output built from
    them is byte-identical to a sequential run.

    Determinism contract: [batch w f tasks = List.map f tasks] (and so
    [map ~domains f tasks = List.map f tasks]) whenever every [f x]
    depends only on [x] (no cross-task shared mutable state); the
    number of domains changes wall-clock time, never the value.  See
    docs/parallelism.md for what tasks may and may not touch. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] (at least 1): the default for
    every [--jobs] flag. *)

type workers
(** Worker domains kept alive by {!with_workers}, waiting for
    batches. *)

val with_workers : domains:int -> (workers -> 'a) -> 'a
(** [with_workers ~domains k] spawns [domains - 1] worker domains,
    runs [k] on the calling domain and joins the workers when [k]
    returns or raises.  The workers sleep until [k] hands them a
    {!batch}, so a caller running many small batches pays for the
    spawns once.  When the runtime refuses a spawn (OCaml caps the
    number of live domains), [k] runs with the workers already
    spawned: the caller always takes part in every batch, so fewer
    workers change the time, never a result. *)

val batch : workers -> ('a -> 'b) -> 'a list -> 'b list
(** [batch w f tasks] applies [f] to every task on the calling domain
    and [w]'s workers and returns the results in task order,
    regardless of completion order.  With no workers, or a single
    task, it is [List.map f tasks] on the calling domain.  Call it
    only from the domain that opened [w].

    Every task runs exactly once even if some raise; the exception of
    the lowest-indexed failing task is re-raised (with its backtrace)
    after all tasks finish.  Workers see their own domain-local [Obs]
    state, not the caller's recorder. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f tasks] is {!batch} over one batch: [f] applied to
    every task on [min domains (List.length tasks)] domains (the
    calling domain included), results in task order. *)

val iter : domains:int -> ('a -> unit) -> 'a list -> unit
(** [map] for effects only. *)
