(** ILP-optimal fusion/contraction partitioning (the planner's
    certificate engine).

    {!Search} explores the partition space with a beam, which
    certifies nothing.  This module closes that gap: it formulates
    the Definition 5 partition problem as a 0/1 integer linear program
    and solves it with a dependency-free branch-and-cut built on a
    two-phase primal simplex — pure OCaml, no external solver.

    {2 Encoding}

    The literature encodes fusion with one 0/1 variable per fusible
    edge ("Fusing Gathers with Integer Linear Programming"); that
    works when the objective is linear in the edges.  Ours is not: the
    cache-simulation term of {!Cost} charges a {e cluster} for the
    conflict misses of its interleaved sweeps, which is not a sum of
    pairwise contributions.  We therefore solve the column (set
    partitioning) closure of the edge encoding — one 0/1 variable
    [y_C] per {e valid cluster} [C], where the edge variable of the
    classical encoding is recovered as [x_ij = Σ_{C ⊇ {i,j}} y_C]:

    - {e columns}: every statement set accepted by
      [Core.Partition.check_merge] on the trivial partition.  That
      check is exactly Definition 5 conditions (i), (ii) and (iv) plus
      convexity (no dependence path leaving and re-entering the set —
      such a set can belong to {e no} acyclic partition).  An
      ascending-index depth-first extension enumerates them, checking
      only what each extension changes: (i) and (ii) are pairwise and
      tabulated once per block; (iv) runs FIND-LOOP-STRUCTURE on the
      UDVs accumulated along the prefix, and only when the extension
      adds some; and since ASDG edges ascend, adding [next] to a convex
      prefix breaks convexity iff a statement outside it, reachable
      from it, reaches [next] — a lookup in a transitive-reach table
      built once per block.  Every veto is inherited by all extensions
      of the set, so pruning at the first veto is exact;
    - {e rows}: one equality [Σ_{C ∋ i} y_C = 1] per statement — a
      chosen set of clusters is a partition;
    - {e acyclicity}: condition (iii) cannot be captured by the rows
      (two individually convex clusters can still form a condensation
      cycle), so it is enforced by {e lazy cuts}: when the incumbent
      LP solution is integral but its cluster graph has a cycle
      [C_1 → … → C_k → C_1], the globally valid cut
      [Σ y_{C_j} ≤ k - 1] is added and the node re-solved;
    - {e objective}: {!Cost.cluster_weight}, the per-cluster part of
      {!Cost.block_cost}: reference weight after the contractions
      confined to [C], plus [C]'s sweep misses.  Summed over a
      partition, plus {!Cost.flop_ns}, it reproduces the block cost
      {e except} for the communication term, which couples clusters
      through pipelining windows.  At [procs <= 1] communication is
      identically zero and the objective is exact
      ({!stats.objective_exact}); at higher [procs] the ILP optimizes
      the comm-free part and the final choice among candidate
      partitions is made on the full model.

    {2 Certificates}

    [proved = true] means: cluster enumeration completed under
    [max_clusters], and branch and bound closed under {!max_nodes} /
    [max_pivots] — the returned partition minimizes the separable
    objective over {e all} valid partitions.  When additionally
    [objective_exact], that is the true block-cost optimum.
    [lower_bound_ns] is a certified lower bound on the block cost of
    {e every} valid partition (the root LP relaxation value plus the
    plan-invariant flop term); it is [None] when enumeration was
    capped, because an incomplete column set relaxes nothing.

    The incumbent is seeded with the greedy [c2+f3] partition and any
    [seeds] the caller passes (the driver passes {!Search}'s result),
    and every candidate is ranked by the {e full} {!Cost.block_cost}:
    the returned partition is never worse than any seed under the
    model, whether or not the solve completed.  Everything —
    enumeration order, simplex pivoting (Dantzig with lowest-index
    tie-breaks, Bland after degeneracy), branching (most-fractional,
    lowest-index ties) — is deterministic, and [jobs] only
    parallelizes column pricing through [Support.Pool] (task-order
    results), so the outcome is independent of [jobs]. *)

type cfg = {
  max_clusters : int;  (** column cap; exceeding it voids the certificate *)
  max_pivots : int;  (** total simplex pivot budget across all LP solves *)
  jobs : int;  (** domains pricing columns in parallel (result-invariant) *)
}

val default : cfg
(** [{ max_clusters = 4000; max_pivots = 200_000; jobs = 1 }].  Costs
    closer than [Cost.eps] count as equal. *)

val max_nodes : int
(** Branch-and-bound node budget per block (400). *)

type stats = {
  clusters : int;  (** columns enumerated (valid convex clusters) *)
  complete : bool;  (** enumeration finished under [max_clusters] *)
  nodes : int;  (** branch-and-bound nodes solved *)
  cuts : int;  (** acyclicity cuts added *)
  pivots : int;  (** simplex pivots spent *)
  proved : bool;
      (** the returned partition provably minimizes the separable
          objective over all valid partitions *)
  objective_exact : bool;
      (** [procs <= 1]: no communication term, so the separable
          objective {e is} the block cost and [proved] certifies true
          optimality *)
  lower_bound_ns : float option;
      (** certified lower bound on any valid partition's block cost;
          [None] when enumeration was capped *)
  greedy_ns : float;  (** block cost of the greedy c2+f3 partition *)
  best_ns : float;  (** block cost of the returned partition *)
  improved : bool;  (** [best_ns] strictly beats [greedy_ns] *)
}

val columns : cfg -> Core.Asdg.t -> int list array * bool
(** The block's columns, as {!block} enumerates them: the singletons,
    then every valid convex cluster in ascending-index DFS order, up to
    [max_clusters] columns (or [32 × max_clusters] extensions tried);
    and whether the enumeration completed.  Each column is ascending.
    [test/test_plan.ml] keeps the enumeration that vets every
    extension with [Core.Partition.check_merge] as the oracle. *)

val tableau :
  n:int ->
  int list array ->
  act_cols:int array ->
  eq_rows:int array ->
  cut_rows:(int list * int) array ->
  float array array * float array * int array
(** [tableau ~n cols ~act_cols ~eq_rows ~cut_rows]: the dense starting
    tableau [(a, b, basis)] of one branch-and-cut node's LP over a
    block of [n] statements.  Columns [0 .. k-1] of [a] are the active
    columns [cols.(act_cols.(j))], then one slack per cut row, then one
    artificial per equality row.  Row [r < |eq_rows|] is statement
    [eq_rows.(r)]'s partition row (a 1 under every active column that
    holds it, right-hand side 1, its artificial basic); row
    [|eq_rows| + k] is cut [k] (a 1 under each of its members, which
    are active-column positions, right-hand side its bound, its slack
    basic).  Filled by walking each active column's statement list
    once. *)

val block :
  ?probe:(Core.Partition.t -> unit) ->
  ?seeds:Core.Partition.t list ->
  cfg ->
  Cost.t ->
  block:int ->
  candidates:string list ->
  Core.Asdg.t ->
  Core.Partition.t * stats
(** Solve one basic block, as {!Search.block} does: [candidates] are
    the block's contraction candidates, the cost of a partition is
    [Cost.block_cost] under [Core.Contraction.decide]'s scalar
    contractions.  [probe] is called on every {e candidate partition}
    ranked for the final answer (seeds, greedy, and each integral
    acyclic ILP solution) — tests use it to assert Definition 5
    validity.  [seeds] are alternative incumbents (must be partitions
    of [g]).  Emits [plan.ilp.*] Obs counters and a ["plan-ilp"]
    span. *)
