(** Beam search over fusion partitions (the planner's engine).

    The paper's FUSION-FOR-CONTRACTION (Fig. 3) is a greedy pass in
    decreasing reference-weight order, and §5.2 concedes it can miss
    profitable partitions when candidates conflict.  This module
    searches the partition space instead:

    - {e states} are valid Definition 5 partitions by construction —
      every move is a merge set closed under [Core.Partition.grow], so
      no inter-cluster cycle can form, and vetted for the remaining
      conditions by the block's {!Pairs} table: pair lookups, then one
      FIND-LOOP-STRUCTURE over the UDVs of the set's pairs, memoized
      on the set's statements;
    - {e moves} are (a) the Figure-3 array moves (all clusters
      referencing an array, grown), and (b) pairwise cluster merges
      (grown), which reach the partial fusions the greedy all-or-
      nothing per-array rule cannot;
    - {e beam}: the search starts from the trivial partition and the
      greedy [c2+f3] one.  Each round prices every vetted child of the
      beam's states and keeps the [beam_width] children of least cost,
      ties broken by the printed representative vector ({!beam_pick}).
      It stops when a round leaves no child, after [n] rounds for a
      block of [n] statements (no state admits more merges), or once
      [max_states] states have been priced.  A beam is a heuristic:
      it certifies nothing, and {!Ilp} is the planner that proves
      optimality;
    - {e delta pricing}: a child differs from its parent in one merged
      cluster.  Merging never un-contracts an array, and an array it
      newly contracts has all its references in the merged cluster, so
      every other cluster sweeps exactly the streams it swept in the
      parent.  A child therefore probes only the merged cluster, sets
      contraction flags only for arrays whose references all lie in
      it, and re-folds the clusters' miss pairs in cluster order with
      [Cost.block_cost_of_misses] — bit-identical to [Cost.block_cost]
      under [Core.Contraction.decide]'s contractions, which only the
      two seeds call;
    - {e memoization}: states are canonicalized by their cluster-
      representative vector and never costed twice: the visited table
      is keyed on that [int array] itself.  Move generation builds one
      [Core.Partition.grow] table per expanded state and answers every
      array move and cluster pair by lookup.

    The incumbent is the cheaper seed, and is replaced only by a
    cheaper priced state, so the result is {e never} worse than the
    paper's algorithm under [Plan.Cost], the planners' own cost model
    (the trace-driven simulator can disagree; see ROADMAP.md).  Costs
    are compared at [Cost.eps] granularity and cost ties broken by
    the printed representative vector, printed only for states at or
    below the beam's cutoff cost, making the search fully
    deterministic. *)

type cfg = {
  max_states : int;
      (** states priced (seeds included) after which no further round
          starts *)
  beam_width : int;  (** children each round keeps *)
  jobs : int;
      (** domains pricing sibling candidate states in parallel: each
          {!block} call keeps [jobs - 1] {!Support.Pool} workers alive
          and hands them each round's children as one batch; the
          result, stats and provenance are identical at any value (see
          docs/parallelism.md) *)
}

val default : cfg
(** [{ max_states = 16000; beam_width = 12; jobs = 1 }].  Costs closer
    than [Cost.eps] count as equal. *)

type stats = {
  expanded : int;  (** beam states whose children were generated *)
  generated : int;  (** states costed (including seeds) *)
  pruned : int;  (** priced children the beam did not keep *)
  deduped : int;  (** children skipped as already-visited states *)
  beam_rounds : int;  (** rounds run *)
  greedy_ns : float;  (** block cost of the greedy c2+f3 partition *)
  best_ns : float;  (** block cost of the returned partition *)
  improved : bool;  (** [best_ns] strictly beats [greedy_ns] *)
}

val merge_sets : Core.Asdg.t -> Core.Partition.t -> int list list
(** The merge sets the search tries from a state, before vetting: the
    Figure-3 array moves and the pairwise cluster merges, each closed
    under [Core.Partition.grow] and ascending, in polymorphic
    [compare]'s order without duplicates.  On an acyclic state merging
    any of them forms no cycle, so [Core.Partition.check_merge] decides
    it by conditions (i), (ii) and (iv) alone (tests assert it). *)

val vetted :
  Pairs.t ->
  Core.Partition.t ->
  (int list * (unit, Core.Partition.veto) result) list
(** Each of {!merge_sets} with the verdict the search acts on:
    [Pairs.vet] of the set's statements, on the table of the state's
    block.  The search expands a state into the sets vetted [Ok ()]. *)

val beam_pick : int -> (float * int array * 'a) list -> 'a list
(** [beam_pick width entries]: the payloads of the first [width] of
    [entries] — each a quantized cost, a state's representative vector
    and a payload — stably sorted by cost ([Float.compare]), ties by
    the vector printed as ["r0.r1..."] ([String.compare]); [[]] when
    [width <= 0].  Equal entries are kept, in list order.  It finds the
    [width]-th smallest cost first and prints and sorts only the
    entries at or below it.  The search picks every beam with it;
    exposed so tests can hold it to that stable sort as an oracle. *)

val block :
  ?probe:(Core.Partition.t -> Cost.breakdown -> unit) ->
  ?on_pick:
    (int -> (float * int array) list -> (float * int array) list -> unit) ->
  cfg ->
  Cost.t ->
  block:int ->
  candidates:string list ->
  Core.Asdg.t ->
  Core.Partition.t * stats
(** Search the fusion partitions of one basic block.  [candidates]
    are the block's contraction candidates (as handed to the greedy
    fuser); the cost of a state is [Cost.block_cost] of the partition
    with [Core.Contraction.decide]'s scalar contractions.  [probe p
    cost] is called on every state the search prices, with its
    breakdown, on the calling domain in the order the states are
    generated (tests use it to assert Definition 5 validity of the
    whole explored space and the exactness of delta pricing).
    [on_pick width entries picked] is called on every beam the search
    picks, with the (quantized cost, representative vector) of each
    state offered to {!beam_pick} in order and of each it kept (tests
    hold every pick to the oracle).  Each round's children are priced
    as one {!Support.Pool.batch}.  Emits [plan.*] Obs counters and a
    ["plan-search"] span. *)
