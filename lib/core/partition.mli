(** Fusion partitions (Definition 5) over an ASDG.

    A fusion partition groups the statements of an ASDG into fusible
    clusters; upon scalarization each cluster becomes a single loop
    nest.  A partition is valid when
    (i) statements in a cluster share one region,
    (ii) intra-cluster {e flow} UDVs are null (loop-carried flow would
    inhibit parallelism),
    (iii) the inter-cluster graph is acyclic, and
    (iv) each cluster admits a loop structure vector preserving every
    intra-cluster dependence.

    Clusters are named by their minimum statement index, matching the
    paper's rule that a merge lands in the [P_k] of smallest [k]. *)

type t

val trivial : Asdg.t -> t
(** One statement per cluster. *)

val asdg : t -> Asdg.t
val cluster_of : t -> int -> int
(** Representative (minimum statement index) of the statement's cluster. *)

val clusters : t -> int list list
(** All clusters, each sorted, ordered by representative. *)

val members : t -> int -> int list
(** Statements of the cluster whose representative is given. *)

val n_clusters : t -> int

val same_cluster : t -> int -> int -> bool

val inter_cluster_edges : t -> (int * int) list
(** Edges of the cluster-level digraph, as representative pairs
    (deduplicated, self-loops removed). *)

val loop_structure : t -> int -> Loopstruct.t option
(** FIND-LOOP-STRUCTURE on the cluster's intra-cluster UDVs. *)

val grow : t -> int list -> int list
(** [grow p c] (the paper's GROW): representatives of clusters outside
    [c] lying on a dependence path from [c] to [c] — exactly the
    clusters that would end up on an inter-cluster cycle if [c] were
    fused.  Ascending.  Staged: [grow t] tabulates the transitive reach
    of the cluster graph once, and its transpose, as a bitset row per
    cluster (O(n + e + k²·⌈k/63⌉) for [n] statements, [e] dependence
    edges and [k] clusters), and then answers each set [c] by word
    operations in O(|c|·⌈k/63⌉ + 63·w) for the [w] nonzero words of the
    answer, with no graph search.  Applying it to many cluster sets of
    one partition pays for the table once. *)

val stmts_of : t -> int list -> int list
(** The statements of the given clusters (by representative),
    ascending: one pass over the statements, O(n). *)

type veto =
  | Region_mismatch  (** condition (i): statements iterate different regions *)
  | Nonnull_flow  (** condition (ii): a loop-carried flow dependence would be internalized *)
  | No_loop_structure  (** condition (iv): FIND-LOOP-STRUCTURE returned NOSOLUTION *)
  | Cycle  (** condition (iii): the merged cluster graph would be cyclic *)

val check_merge : ?relax_flow:bool -> t -> int list -> (unit, veto) result
(** FUSION-PARTITION? with an explanation: would merging the given
    clusters (by representative) leave a valid fusion partition?
    Checks all four conditions of Definition 5 (including acyclicity,
    so it is safe to call without {!grow} — e.g. by the greedy pairwise
    fuser) and reports the first violated one.

    [relax_flow:true] drops condition (ii) — non-null intra-cluster
    flow UDVs are tolerated provided a legal loop structure still
    exists.  This models {e sequential} fusion as a scalar-language
    compiler would perform it, sacrificing the parallelism guarantee;
    it enables the partial-contraction extension (see
    {!Contraction.decide_partial}). *)

val can_merge : ?relax_flow:bool -> t -> int list -> bool
(** [check_merge] as a predicate. *)

val contractible : t -> string -> within:int list -> bool
(** CONTRACTIBLE? (Definition 6): all dependences due to the variable
    run between statements of the given cluster set, and all their
    UDVs are null.  The caller separately guarantees the global
    conditions (not live-out, confined to this block, first reference
    is a write). *)

val merge : t -> int list -> t
(** Fuse the given clusters (no validity check; see {!can_merge}). *)

val is_valid : ?relax_flow:bool -> t -> bool
(** Full Definition 5 check on the current partition — used by tests
    and assertions.  [relax_flow] as in {!can_merge}. *)

val first_ref_is_write : t -> string -> bool
(** In statement order, the first statement of the block referencing
    the variable writes it (no upward-exposed read). *)

val pp : Format.formatter -> t -> unit
