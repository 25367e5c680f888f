(** The planner's front door: compile a program with the search-based
    or ILP-based fusion/contraction strategy and report how it
    compares with the paper's greedy ladder.

    Both entry points run one pipeline.  It compiles the greedy
    [c2+f3] level, then [Compilers.Driver.compile_custom_opts] with
    {!Search.block} choosing each block's partition, and under
    {!compile_ilp} once more with {!Ilp.block} (seeded with the searched
    partitions).  Every final plan, after the reduction absorption and
    contraction decision the block planners cannot see, is priced with
    {!Cost.compiled_cost}, and the strongest plan (ILP, then search,
    then greedy) that prices within [Cost.eps] of every weaker one is
    returned.  So the planner is never worse than the paper's
    algorithm under its own model, and [ilp_total_ns <=
    search_total_ns <= greedy]-or-better holds on every cell.  When the
    strongest plan loses, counter ["plan.fallback-greedy"]
    ({!compile}) or ["plan.ilp.fallback"] ({!compile_ilp}) fires.  The
    provenance records per-block reports and, under {!compile_ilp}, the
    solver certificates and, when every block's column enumeration
    completed, a whole-program certified lower bound on the pure
    Definition-5 plan space. *)

type block_report = {
  block : int;
  stats : Search.stats;
}

type ilp_report = {
  iblock : int;
  istats : Ilp.stats;
}

type provenance = {
  strategy : string;  (** ["ilp"], ["search"] or ["greedy"] — the plan returned *)
  machine : string;
  procs : int;
  greedy_total_ns : float;  (** whole-program cost of the greedy c2+f3 plan *)
  search_total_ns : float;  (** whole-program cost of the searched plan *)
  ilp_total_ns : float option;  (** whole-program cost of the ILP plan ({!compile_ilp} only) *)
  chosen_total_ns : float;
  fallback : bool;
      (** the strongest strategy's plan was discarded (its per-block
          wins did not survive reduction absorption): under {!compile}
          the searched plan lost to greedy; under {!compile_ilp} the
          ILP plan lost to search or greedy *)
  proved_optimal : bool option;
      (** {!compile_ilp} only: the ILP plan was returned and every
          block's solve closed with an exact objective ([procs <= 1]) —
          the chosen partitions are provably cost-optimal *)
  certified_lb_ns : float option;
      (** {!compile_ilp} only: certified whole-program lower bound
          (per-block LP bounds + the plan-invariant reduction trees)
          over all Definition-5 plans with scalar contraction and no
          reduction absorption; [None] when any block's column
          enumeration was capped *)
  blocks : block_report list;  (** per-block search outcomes, in block order *)
  ilp_blocks : ilp_report list;
      (** per-block ILP certificates, in block order; [[]] under {!compile} *)
}

val compile :
  ?search:Search.cfg ->
  cost:Cost.t ->
  Ir.Prog.t ->
  (Compilers.Driver.compiled * provenance, Obs.Diagnostic.t) result
(** [cost] must have been built with {!Cost.create} on the same
    program (and carries the target machine / procs / comm options the
    search optimizes for). *)

val compile_ilp :
  ?search:Search.cfg ->
  ?ilp:Ilp.cfg ->
  cost:Cost.t ->
  Ir.Prog.t ->
  (Compilers.Driver.compiled * provenance, Obs.Diagnostic.t) result
(** As {!compile}, plus the branch-and-cut solve ([zapc --plan ilp]). *)

val provenance_codec : provenance Obs.Codec.t
(** The wire shape, used by [zapc --stats], the plan bench and the
    zapd replies: [{"strategy", "machine", "procs", "greedy_total_ns",
    "search_total_ns", "chosen_total_ns", "fallback",
    "blocks": [{"block", "expanded", ...}]}], extended under
    {!compile_ilp} with ["ilp_total_ns"], ["proved_optimal"],
    ["certified_lb_ns"] and ["ilp_blocks"]. *)
