(** Executable SPMD backend: runs a compiled program on a simulated
    processor grid.

    Where {!Comm.Model} {e predicts} communication, this engine
    {e performs} it.  Every array of the program is block-distributed
    over the same [Comm.Dist] grid the model uses (one grid per array
    rank, with globally aligned chunk boundaries): each virtual
    processor owns a local tile extended by ghost halos sized from the
    program's reference offsets.  Execution proceeds in supersteps —
    one per step of the model's {!Comm.Model.schedule}, i.e. per fusible
    cluster in emission order — and each superstep first delivers
    exactly the step's messages (vectorized border slabs, with
    redundancy elimination and combining as configured), then runs the
    step's statements one at a time, each on every processor over its
    owned iteration points once the ghosts it reads are current, and
    finally meets at a barrier that advances the simulated clock.  A
    processor runs a statement through {!Exec.Interp.run_over}, as
    {!Sir.Scalarize.tr_astmt}'s loop body inside row-major loops over
    its owned points, on its tiles.  Reductions are evaluated the same
    way into a buffer per processor and folded in the canonical global
    row-major order (bit-identical to the sequential interpreters)
    while a log₂ p combining tree is charged and its messages counted.
    Messages and trees are priced by {!Comm.Model.wait_ns},
    {!Comm.Model.transfer_ns} and {!Comm.Model.tree_ns}.

    Determinism and agreement: the run is bit-deterministic, its
    checksum equals the sequential {!Exec.Interp.checksum} of the same
    compiled program, and its {e charged} message/byte totals equal
    {!Comm.Model.analyze} exactly.  The {e wire} totals count the
    messages that actually crossed chunk boundaries (edge processors
    have no neighbor; payloads are clipped to owned cells) and are
    reported separately — see docs/spmd.md for the accounting and the
    known divergences. *)

type config = {
  machine : Machine.t;
  procs : int;
  opts : Comm.Model.opts;  (** which optimizations the runtime applies *)
  cachesim : bool;  (** simulate a per-processor cache hierarchy *)
}

(** One processor's counters: what its compute charges are priced
    from, and its communication wait. *)
type proc_counters = {
  mutable loads : int;
  mutable stores : int;
  mutable flops : int;
  mutable comm_ns : float;  (** clock time charged to receiving *)
}

(** The run's report: the [spmd] member of a zapd [ran] reply and the
    [spmd] section of [zapc --stats], both written by {!report_codec}. *)
type report = {
  machine : string;  (** display name, e.g. ["Cray T3E"] *)
  procs : int;
  checksum : string;  (** equals the sequential interpreter's *)
  time_ns : float;  (** critical path: the clock at the final barrier *)
  supersteps : int;
  charged_messages : int;
      (** model currency: one per scheduled message per block
          execution, plus ⌈log₂ p⌉ per reduction — equals
          [Comm.Model.analyze.messages] *)
  charged_bytes : int;  (** modeled payloads — equals [analyze.bytes] *)
  wire_messages : int;  (** sender→receiver pairs actually delivered *)
  wire_bytes : int;  (** actual clipped slab payloads *)
  reduction_messages : int;  (** charged tree messages (part of charged) *)
  unmodeled_exchanges : int;
      (** ghost fills the engine needed but the model did not schedule
          (diagonal-only reference patterns, reduction arguments read
          at an offset, and under c2+p reads at an offset of what an
          earlier statement of the same cluster wrote); 0 for all paper
          benchmarks through c2+f3 *)
  ghost_fills : int;  (** slabs filled, scheduled + unscheduled *)
  l1 : Cachesim.Cache.stats option;
      (** summed over processors; [None] without cachesim *)
  l2 : Cachesim.Cache.stats option;
}

val report_codec : report Obs.Codec.t
(** Schema [zapc/spmd-report/1]:
    [{"schema", "machine", "procs", "checksum", "time_ns",
    "supersteps", "charged": {"messages", "bytes"},
    "wire": {"messages", "bytes"}, "reduction_messages",
    "unmodeled_exchanges", "ghost_fills", "l1", "l2"}], the cache
    stats as [{"accesses", "hits", "misses"}] or [null]. *)

type run = { report : report; per_proc : proc_counters array }
(** A finished run: its report and each processor's counters, by
    processor. *)

exception Unsupported of string
(** The program/grid combination is outside the engine's domain:
    a ghost halo deeper than the smallest chunk of a split dimension,
    a write offset ([lhs_off]) in a split dimension, or an iteration
    of a rank no array has. *)

exception Runtime_error of string
(** An {!Exec.Interp.Runtime_error} out of a processor's run, with the
    same text (a subscript outside the processor's tile, an undefined
    scalar), or an internal invariant violation (a slab outside its
    halo window, a top-up with no neighbor) — an engine or model bug,
    or a program {!Ir.Prog.validate} rejects, not bad input. *)

val execute : config -> Compilers.Driver.compiled -> run
(** Run the program to completion on [config.procs] virtual
    processors.  Emits [Obs] instrumentation when a recorder is
    installed: a span per superstep and the seven [spmd.*] counters
    [messages] and [bytes] (wire), [charged-messages],
    [charged-bytes], [ghost-fills], [unmodeled-exchanges] and
    [supersteps]. *)
