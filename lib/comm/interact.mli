(** Fusion / communication-optimization interaction (paper §5.5).

    Two strategies resolve the conflict between statement fusion and
    communication pipelining:

    - {e favor fusion} (the paper's default, and the winner): fusion is
      never prevented by communication concerns — simply compile with
      no veto;
    - {e favor communication}: fusion may not erase pipelining
      opportunities.  A statement that consumes remote data (a
      reference with a nonzero offset in a distributed dimension) may
      only fuse with statements it is related to by a dependence path;
      fusing an {e independent} statement into the consumer's nest
      would remove it from the overlap window that hides the exchange
      latency. *)

val favor_comm_veto :
  procs:int -> Ir.Prog.t -> block:int -> int list -> bool
(** The [may_fuse] predicate implementing favor-communication, suitable
    for [Compilers.Driver.opts ~may_fuse] (the [compile_opts] family).  With [procs = 1] nothing
    is remote and the predicate always allows fusion. *)

