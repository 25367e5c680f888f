(** Communication inference, optimization and costing.

    Works at the array level, on the same fusion plan the scalarizer
    consumes — exactly the integration the paper argues for (§5.5).
    For every fusible cluster the model infers the border exchanges its
    remote references require, then applies the paper's communication
    optimizations:

    - {e message vectorization} — always on: one message per
      (array, direction) per cluster, never per element;
    - {e redundancy elimination} — an exchange is dropped when the same
      border was already fetched and the array has not been written
      since;
    - {e message combining} — exchanges consumed at the same point and
      going to the same neighbor share one message (one latency α);
    - {e pipelining} — the wait for an exchange is overlapped with the
      computation of clusters scheduled between the producer of the
      array and its consumer; a floor of 0.25·α per message models the
      unhideable software overhead.

    Reductions contribute a log₂ p combining tree per execution.

    This module is the one place that prices a message or a reduction
    tree and that lists a block's supersteps: the planner's cost model
    ([Plan.Cost]) and the SPMD engine ([Spmd]) read all three from
    here. *)

type opts = {
  redundancy : bool;
  combining : bool;
  pipelining : bool;
}

val all_on : opts
val vectorize_only : opts

type summary = {
  messages : int;  (** point-to-point messages, after optimization *)
  bytes : int;  (** payload bytes moved *)
  raw_ns : float;  (** exchange cost before overlap *)
  effective_ns : float;
      (** total communication wait time charged to the run, including
          reductions *)
  reduction_ns : float;  (** portion due to reduction trees *)
}

(** {1 Prices}

    [α] is [Machine.msg_latency_ns], [β] is [Machine.byte_ns]. *)

val transfer_ns : machine:Machine.t -> int -> float
(** [α + β·bytes]: the raw price of one point-to-point message of
    [bytes]. *)

val wait_ns : machine:Machine.t -> opts:opts -> window:float -> int -> float
(** What the receiver of one message of [bytes] waits when [window] ns
    of computation ran between the message's posting and its use:
    under [opts.pipelining] the raw price less the window, never below
    [0.25·α] (the unhideable software overhead); otherwise the raw
    price.  The model's window is the static cost of the clusters
    between producer and consumer; the SPMD engine's is its clock's
    elapsed time since the producing superstep. *)

val reduction_stages : int -> int
(** Stages of the log₂ p reduction combining tree: ⌈log₂ procs⌉
    (0 for a single processor). *)

val tree_ns : machine:Machine.t -> procs:int -> float
(** The price of one reduction's combining tree: {!reduction_stages}
    stages of one double each, [stages × transfer_ns 8]. *)

(** {1 Typed message schedules}

    The per-block exchange schedule the analysis is built on, exposed
    so an executable backend (lib/spmd) can perform {e exactly} the
    messages the model predicts.  Positions refer to the block's
    cluster emission order ({!Sir.Scalarize.cluster_order}). *)

type part = {
  p_array : string;  (** array whose border is carried *)
  p_dir : int array;  (** neighbor direction (sign vector); equals the message's *)
  p_depth : int array;
      (** ghost depth per dimension: componentwise max of [|off_k|]
          over the consuming cluster's remote references, 0 in
          dimensions the direction does not cross *)
  p_bytes : int;  (** modeled slab payload (region extents in uncrossed dims) *)
}

type message = {
  m_dir : int array;
  m_parts : part list;  (** one part per exchanged (array, dir); >1 only under combining *)
  m_producer : int;  (** latest producing cluster position; -1 = block entry *)
  m_consumer : int;  (** consuming cluster position *)
  m_bytes : int;  (** sum of part payloads *)
}

(** One superstep: a fused cluster and the messages it consumes. *)
type step = {
  s_stmts : Ir.Nstmt.t list;  (** the cluster's members, in source order *)
  s_cost : float;  (** static compute estimate (for overlap windows) *)
  s_messages : message list;  (** delivered before the cluster runs *)
}

type block_sched = {
  b_rank : int;  (** rank of the block's statements (grid rank) *)
  b_steps : step array;  (** one per cluster, in emission order *)
  b_inferred : int;  (** exchanges before redundancy elimination *)
  b_kept : int;  (** after redundancy elimination, before combining *)
}

val schedule :
  machine:Machine.t ->
  procs:int ->
  opts:opts ->
  Compilers.Driver.compiled ->
  block_sched list
(** One schedule per basic block, in [Ir.Prog.block.index] order (the
    compiled plan's order).  Message vectorization is always applied;
    redundancy elimination and combining follow [opts].  With
    [procs = 1] no step has messages. *)

val block_multipliers : Ir.Prog.node list -> int array * int
(** A fold over a program's [Ir.Prog.skeleton]: per-block execution
    multipliers (how many times each basic block runs — the product of
    its enclosing loops' trip counts — indexed by
    [Ir.Prog.block.index]) and the total number of reduction
    executions (each standalone reduction, and each block's trailing
    ones, as often as they run).
    Exposed for the fusion planner, whose cost model must weight blocks
    the same way {!analyze} does. *)

val block_comm :
  machine:Machine.t ->
  procs:int ->
  opts:opts ->
  Ir.Nstmt.t list ->
  Sir.Scalarize.block_plan ->
  summary
(** Communication cost of {e one execution} of a single basic block
    under a candidate fusion plan: the per-message charges of
    {!analyze} (both price a message with one shared function) without
    the execution multiplier, reduction trees or Obs instrumentation.
    This is the planner's per-state communication oracle — cheap enough
    to call inside a partition search. *)

val analyze :
  machine:Machine.t ->
  procs:int ->
  opts:opts ->
  Compilers.Driver.compiled ->
  summary
(** Infer and cost all communication for one compiled configuration.
    Built on {!schedule}: walks the program once for per-block
    execution multipliers, then sums each block's messages.  With
    [procs = 1] everything is local: the summary is all zeros. *)

val expr_flops : Ir.Expr.t -> int
(** The models' static flop count of one evaluation: one per [Unop],
    [Binop] and [Select] node, comparisons included.  [Plan.Cost]
    prices with it too.  The executors count differently
    ({!Ir.Expr.is_flop}). *)

val cluster_cost_ns :
  machine:Machine.t -> Core.Partition.t -> int -> float
(** Static per-execution compute estimate for one cluster (used for
    overlap windows; also exposed for tests). *)
