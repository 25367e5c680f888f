(** The differential oracle.

    Runs one program through every executor in the repo and compares
    live-out checksums against the reference interpreter:
    {!Exec.Interp} on the code of each greedy optimization level,
    the search-based and ILP planners, the SPMD engine at several
    processor counts at [c2+f3] and at [c2+p], and — when a C compiler is available — the
    {!Native} runner built from the {!Sir.Emit_c} translation unit.
    Checksums use
    {!Exec.Interp.Digest}, which canonicalizes NaN payloads, so only
    semantic differences register. *)

type status =
  | Agree
  | Diverged of { expected : string; got : string }
  | Crashed of string
      (** the backend raised (compile error, runtime error, engine
          invariant violation) — counted as a divergence *)
  | Skipped of string
      (** outside the backend's domain (SPMD halo deeper than a
          chunk, no C compiler installed) — not a divergence *)

type report = {
  reference : string option;  (** refinterp checksum; [None] = it crashed *)
  results : (string * status) list;
      (** backend name → status, e.g. [("interp@c2+f3", Agree)],
          [("spmd@c2+f3/p16", Skipped _)], [("native@baseline", ...)] *)
}

type cfg = {
  levels : Compilers.Driver.level list;  (** greedy ladder to check *)
  planner : bool;
      (** also run the search and ILP planners, optimizing for 4
          processors *)
  spmd_procs : int list;
      (** SPMD processor counts, each at [c2+f3] and at [c2+p] *)
  native : bool;
      (** compile the emitted C of baseline and [c2+f3] when [cc] is
          present *)
  machine : Machine.t;
}

val default : cfg
(** Everything on: [base..c2+f4] plus [c2+p], the search and ILP
    planners, SPMD at 1/4/16 processors, native C. *)

val cc_available : unit -> bool
(** Whether a [cc] is on PATH — delegates to
    {!Native.Toolchain.available} (probed once process-wide, cached in
    an atomic; safe to call from any domain). *)

val run : ?cfg:cfg -> Ir.Prog.t -> report
(** The program must be [Ir.Prog.validate]-clean.  Never raises: a
    backend failure of any kind is recorded in the report. *)

val divergences : report -> (string * status) list
(** The [Diverged] and [Crashed] entries. *)

val ok : report -> bool
(** No divergences and the reference itself ran. *)

val skips : report -> (string * status) list

val focus : report -> cfg -> cfg
(** Narrow [cfg] to the backend families implicated by the report's
    divergences — the shrinker's per-candidate check budget. *)

val pp : Format.formatter -> report -> unit
val to_string : report -> string
