(** The planner's unified cost model.

    Scores a candidate fusion/contraction plan in one currency —
    modeled nanoseconds on a target machine — so that the three forces
    the paper keeps in separate figures (contraction benefit, cache
    locality, communication) become directly comparable and a search
    can optimize their sum.  For one basic block under a candidate
    [Sir.Scalarize.block_plan]:

    - {e reference cost}: every array element reference pays the L1
      hit time; scalar-contracting an array removes its references
      (the paper's reference weight, [Core.Weights], in ns);
    - {e memory-system cost}: each fusible cluster's footprint is swept
      through the target machine's cache hierarchy ([Cachesim]) at
      line granularity — one interleaved unit-stride stream per
      referenced array, contracted arrays excluded — and the measured
      L1/L2 misses are charged at the machine's miss penalties.
      Fusing two clusters that read the same array turns one of the
      two sweeps into hits; over-fusing past the cache's associativity
      surfaces as conflict misses (the paper's f4 pollution);
    - {e communication cost}: [Comm.Model.block_comm] on the same
      block plan — border exchanges after vectorization, redundancy
      elimination, combining and pipelining.

    Block costs are weighted by the block's execution multiplier
    (enclosing sequential loops), matching [Comm.Model.analyze].
    A sweep is priced at [min lines probe_cap] steps and scaled
    linearly to its real line count; those steps are not simulated
    one by one but counted from one cache period (one step, or
    l2_line / l1_line steps under an L2), which the simulated layout
    makes exact.  Per-cluster cache probes are memoized on what decides
    them: the sweep's line count and the base addresses of its
    streams, in order.  A search that reshuffles the same clusters,
    and every cluster of any block that sweeps the same streams,
    re-pays nothing.

    The model deliberately prices {e sweeps}, not absolute seconds:
    each cluster is costed as if its working set starts uncached
    (per-cluster compulsory misses), which is the regime the paper's
    size-scaled experiments run in.  See docs/planner.md. *)

type cfg = {
  machine : Machine.t;
  procs : int;
  opts : Comm.Model.opts;
}

type breakdown = {
  flop_ns : float;  (** arithmetic (plan-invariant; kept for absolute totals) *)
  ref_ns : float;  (** element references × L1 hit time, after contraction *)
  miss_ns : float;  (** modeled cache-miss penalties from the cluster sweeps *)
  comm_ns : float;  (** effective communication time *)
  total_ns : float;  (** the planner's objective: sum of the above *)
  contracted_elems : int;
      (** element references eliminated by scalar contraction
          ([Core.Weights] currency; partial contractions count 0) *)
}

val zero : breakdown
val add : breakdown -> breakdown -> breakdown

type t
(** A memoizing evaluator for one program on one machine
    configuration. *)

val create : cfg -> Ir.Prog.t -> t

val cfg : t -> cfg

val block_weight : t -> block:int -> string -> int
(** Reference weight of an array within the block: Σ references ×
    region volume over the block's statements (equals
    [Core.Weights.weight] on the block's ASDG). *)

val lines_of_volume : t -> int -> int
(** Cache lines one sweep of a region of the given element volume
    touches on this machine's L1 geometry (≥ 1). *)

val base : t -> string -> int option
(** Simulated base address of a declared array.  Arrays are laid out
    in declaration order; every base is a multiple of 256 and of every
    line size of the machine, and consecutive allocations are separated
    by a guard at least that long, so two arrays never share a cache
    line.  Sweeps of programs whose references stay within their
    arrays' bounds ([Ir.Prog.validate]) therefore share a line only
    when they sweep the same array — which is what makes counting one
    cache period exact. *)

val probe_cap : int
(** Sweeps longer than this many lines (512) are priced as this many
    and scaled linearly to their real line count. *)

val eps : float
(** The planners' tie tolerance (1e-6 ns): two plan costs closer than
    this count as equal, in [Plan.Search], [Plan.Ilp] and
    [Plan.Driver]'s ranking alike. *)

(** {2 What both planners ask of a block}

    [Plan.Search] and [Plan.Ilp] read one per-candidate fact table per
    block, and the ILP minimizes {!cluster_weight}, the per-cluster part
    of {!block_cost_of_misses}, plus {!flop_ns}. *)

type array_facts = {
  refs : int array;  (** the statements referencing the array, ascending *)
  weight : int;  (** {!block_weight} *)
  eligible : bool;
      (** [Core.Contraction.scalar_if_confined]: contracted exactly when
          all its references share a cluster *)
  slot : int;  (** its slot (below); -1 if the block never references it *)
}

type facts = {
  names : string array;  (** the contraction candidates, in order *)
  cands : array_facts array;  (** per candidate *)
}

val facts : t -> block:int -> candidates:string list -> Core.Asdg.t -> facts
(** The block's fact table, built once per planner call. *)

(** {2 Contraction flags}

    A block's probes name arrays by {e slot}: a dense index over the
    arrays the block references, in order of first reference (each
    statement's written array, then its reads).  A set of contracted
    arrays is a [bool array] of {!slots} flags, so building a probe key
    tests a flag per stream rather than comparing names. *)

val slots : t -> block:int -> int
(** Arrays the block references: the length of its flag arrays. *)

val flags : t -> block:int -> string list -> bool array
(** The flags of the named arrays; names the block never references are
    ignored. *)

val cluster_weight : t -> block:int -> facts -> int list -> float
(** w(C), the term the ILP minimizes per cluster [C] (ascending):
    [mult × (refs_C × l1_hit + l1m(C) × l1_miss + l2m(C) × l2_miss)],
    where [refs_C] counts the element references of [C]'s statements
    minus the weight of every eligible candidate whose referencing
    statements all lie in [C], and the misses are {!cluster_misses}
    under those contractions.  Contraction confines an array's every
    reference, hence every dependence on it, to one cluster, so
    [Core.Contraction.decide]'s verdict for a partition distributes
    over its clusters, and Σ_C w(C) + {!flop_ns} equals
    [block_cost − comm_ns] for any partition under [decide]'s scalar
    contractions, up to float rounding (see docs/planner.md). *)

val flop_ns : t -> block:int -> float
(** The block's arithmetic term, [mult × flops × flop_ns]: the
    [flop_ns] of every plan's {!block_cost}. *)

val sweep : t -> block:int -> int list -> contracted:bool array -> int array
(** The probe key of the sweep {!cluster_misses} prices:
    [[| lines; base_1; ...; base_k |]], its line count on the L1
    geometry, then the base address of each stream in sweep order (each
    statement's written array, then its reads), references to arrays
    whose [contracted] flag is set excluded.  [[||]] when no stream is
    left. *)

val sweep_misses : Machine.t -> int array -> float * float
(** Unmemoized [(l1_misses, l2_misses)] of a probe key's sweep,
    counted from one cache period.  Exact when every base is a multiple
    of every line size of the machine and any two streams either share
    a base or never touch a common line within [min lines probe_cap]
    lines.

    Each domain simulates on one [Cachesim.Cache.Hierarchy] of its own
    (domain-local storage), created on its first probe and replaced
    when a machine with other L1/L2 configs probes.  A probe reads its
    misses as deltas of the hierarchy's counters and then invalidates
    the sets it touched ({!Cachesim.Cache.Hierarchy.invalidate}), so
    every probe answers as on a fresh hierarchy, bit for bit, in
    O(streams × period × assoc) with no cache allocated.  A probe that
    raises drops its domain's hierarchy. *)

val cluster_misses :
  t -> block:int -> int list -> contracted:bool array -> float * float
(** [(l1_misses, l2_misses)] of one fused cluster per block execution:
    the cluster's statements (by block-local index) swept as one loop
    nest through the machine's cache hierarchy, references to
    [contracted] arrays excluded (flags as in {!sweep}).  Memoized;
    safe to call from parallel cost workers.  This is the per-cluster
    miss term {!block_cost} sums and {!cluster_weight} charges. *)

val block_cost : t -> block:int -> Sir.Scalarize.block_plan -> breakdown
(** Cost of the block under a candidate plan, scaled by the block's
    execution multiplier.  Pure given [create]'s program: safe to call
    from a search loop.  It is {!block_cost_of_misses} applied to a
    fresh {!cluster_misses} probe of every cluster. *)

val block_cost_of_misses :
  t ->
  block:int ->
  Sir.Scalarize.block_plan ->
  saved:int ->
  (float * float) list ->
  breakdown
(** The pricing formula {!block_cost} uses, given the reference weight
    [saved] that the plan's scalar contractions remove (the sum of
    their {!block_weight}s) and each cluster's {!cluster_misses} pair
    (under those contractions) in [Core.Partition.clusters] order.
    The pairs are summed in that order, so a caller that keeps the
    pairs of clusters a merge left untouched and probes only the merged
    one gets {!block_cost}'s breakdown bit for bit ([Plan.Search] does;
    see docs/planner.md). *)

val plan_cost : t -> Sir.Scalarize.plan -> breakdown
(** Whole-program cost: block costs plus the reduction combining
    trees (plan-invariant), as in [Comm.Model.analyze]. *)

val compiled_cost : t -> Compilers.Driver.compiled -> breakdown
(** [plan_cost] of a compiled configuration's plan — used to compare
    the greedy ladder against the searched plan on equal terms. *)
