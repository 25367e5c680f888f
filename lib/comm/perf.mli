(** End-to-end performance measurement of a compiled configuration.

    Runs the generated scalar program through the instrumented
    interpreter, feeds every memory reference to the target machine's
    cache hierarchy, infers and costs communication at the array level,
    and combines everything through the machine's time model.  This is
    the measurement harness behind Figures 9–11 and §5.5: the program
    simulated is one processor's share of a problem scaled with the
    machine (constant per-processor data), exactly the paper's
    methodology. *)

type config = {
  machine : Machine.t;
  procs : int;
  comm : Model.opts;
}

type report = {
  time_ns : float;  (** modeled execution time *)
  comp_ns : float;  (** computation + memory-system portion *)
  comm_ns : float;  (** effective communication portion *)
  l1 : Cachesim.Cache.stats;
  l2 : Cachesim.Cache.stats option;
  flops : int;
  loads : int;
  stores : int;
  messages : int;
  msg_bytes : int;
  footprint_bytes : int;
  checksum : string;  (** result digest — equal across correct configurations *)
}

type computation = {
  flops : int;
  loads : int;
  stores : int;
  l1 : Cachesim.Cache.stats;
  l2 : Cachesim.Cache.stats option;
  footprint_bytes : int;
  checksum : string;
}
(** The computation side of a run: what the traced interpreter and the
    cache hierarchy see.  It does not depend on the processor count, so
    a caller sweeping processors simulates once and recosts only the
    communication. *)

val simulate : Machine.t -> Sir.Code.program -> computation
(** Run the scalar program through the instrumented interpreter,
    feeding every memory reference to a fresh copy of the machine's
    cache hierarchy (whose counters go to [Obs] when a recorder is
    installed). *)

val time_ns : Machine.t -> computation -> comm_ns:float -> float
(** The machine's time model applied to a computation plus [comm_ns]
    of communication wait. *)

val measure : config -> Compilers.Driver.compiled -> report
(** {!simulate} the compiled code, cost its communication with
    [Model.analyze], and combine both with {!time_ns}. *)

val improvement_pct : baseline:report -> report -> float
(** Percent runtime improvement over a baseline, the y-axis of
    Figures 9–11: [100·(t_b − t) / t].  Negative = slowdown. *)
