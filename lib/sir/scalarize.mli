(** Scalarization (paper §4.2): array program + fusion plan → scalar IR.

    Each fusible cluster becomes a single loop nest whose structure is
    the cluster's loop structure vector; loop nests and the statements
    inside each nest are ordered by topological sorts of the inter- and
    intra-cluster dependence edges.  Contracted arrays become scalar
    temporaries (or reduced-rank buffers, for the partial-contraction
    extension); their allocations disappear from the generated
    program. *)

type block_plan = {
  partition : Core.Partition.t;
  contracted : (string * Core.Contraction.shape) list;
  absorbed : (int * int) list;
      (** [(reduce index, cluster representative)] pairs: reductions
          of this block's [Ir.Prog.block.trailing] list (by their
          [Ir.Prog.reduction.index]) fused into one of its loop nests.  The
          driver guarantees the soundness conditions: the reduction
          region equals the cluster's region; the cluster's loop
          structure is the default row-major one (so accumulation order
          — and therefore floating-point rounding — is unchanged);
          every reference the reduction makes to an array written in
          that cluster uses offset 0; no cluster emitted {e after} the
          chosen one writes an array the reduction reads; and the
          target scalar is not read anywhere in the block. *)
}
(** The optimizer's decision for one basic block: how statements fuse,
    which arrays contract, and which trailing reductions are fused into
    the last nest (reduction fusion is what lets arrays read {e only}
    by reductions contract — the effect behind EP's every-array
    elimination in the paper's Figure 7). *)

type plan = block_plan list
(** One entry per basic block, in [Ir.Prog.block.index] order. *)

exception Error of string
(** Raised on malformed plans (wrong block count, missing loop
    structure) — these indicate optimizer bugs, not user errors. *)

val trivial_plan : Ir.Prog.t -> plan
(** No fusion, no contraction: the baseline compilation. *)

val scalarize : Ir.Prog.t -> Ir.Prog.node list -> plan -> Code.program
(** [scalarize prog (Ir.Prog.skeleton prog) plan] generates scalar
    code by walking the skeleton: each block becomes its clusters'
    loop nests, with the trailing reductions its plan absorbed
    accumulated inside, followed by its other trailing reductions in
    order.  The result allocates only non-contracted
    arrays; contracted arrays appear among the program's scalars under
    their original names.  Raises {!Error} when the plan's length is
    not the program's block count. *)

val tr_expr : (string * Core.Contraction.shape) list -> Ir.Expr.t -> Code.expr
(** [tr_expr contracted e]: [e] with each reference to a [contracted]
    array read as its scalar or reduced-rank buffer, and region index
    [d] read as {!Code.loop_var}[ d]; every other reference loads
    through the subscripts [loop_var d + offset]. *)

val tr_astmt : (string * Core.Contraction.shape) list -> Ir.Nstmt.t -> Code.stmt
(** The loop body of one array statement, by {!tr_expr}: a [Store], or
    an [Sassign] when its target is contracted to a scalar. *)

val contracted_of_plan : plan -> (string * Core.Contraction.shape) list
(** All contraction decisions across blocks (for reporting). *)

val cluster_order : Core.Partition.t -> int list
(** The order (by representative) in which a partition's clusters are
    emitted as loop nests: a stable topological sort of the
    inter-cluster dependence edges.  Exposed for the communication
    model, which must see the same schedule the generated code has. *)
