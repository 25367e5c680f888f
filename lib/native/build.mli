(** Compile a scalarized program to a native runner and execute it.

    The program is printed by {!Sir.Emit_c.to_string} — one C
    translation unit with one function per fused cluster — into
    [prog.c], and one cc call compiles and links it into a standalone
    runner executable.  The runner speaks the oracle's checksum
    protocol: one stdout line,
    [<16-hex live-out digest> <wall nanoseconds>], where the digest is
    bit-identical to {!Exec.Interp.checksum} and the nanoseconds cover
    exactly the cluster calls (array setup and digesting excluded).

    Every subprocess goes through {!Proc} as an argv array; no file
    name is ever interpreted by a shell, so workdirs with spaces or
    metacharacters in them are safe.  Failures carry the exact command
    line and exit status — a shrunk fuzz repro that ends in "cc
    failed" is only actionable if it says which cc invocation, on
    what, exited how. *)

type error = {
  argv : string list;  (** the exact failing command *)
  status : string;  (** {!Proc.status_string} of its exit *)
  detail : string;  (** trimmed stderr (or protocol diagnosis) *)
}

val error_to_string : error -> string
(** ["`cc -O2 ... prog.c -lm` failed (exit 1): <stderr>"]. *)

type built = {
  runner : string;  (** absolute path of the linked executable *)
  units : int;  (** fused clusters, one C function each *)
}

type run_result = {
  checksum : string;  (** 16-hex live-out digest *)
  wall_ns : int64;  (** monotonic nanoseconds over the cluster calls *)
}

val write_and_compile : dir:string -> Sir.Code.program -> (built, error) result
(** Write [prog.c] into [dir] (created by the caller) and compile it
    there with one [Toolchain.cc_argv () @ ["-o"; runner; prog.c; "-lm"]].
    Requires {!Toolchain.available}; reports the probe failure as an
    [error] otherwise. *)

val run_exe : string -> (run_result, error) result
(** Execute a runner and parse the protocol line. *)

val run_once : salt:int -> Sir.Code.program -> (run_result, error) result
(** Build in a fresh private workdir, run, and clean the workdir up —
    the fuzz oracle's path.  [salt] seeds the workdir name (see
    {!fresh_workdir}). *)

val fresh_workdir : salt:int -> unit -> string
(** mkdtemp-style creation: [mkdir] itself is the atomic claim,
    retried over randomized names, so concurrent domains and processes
    each own a unique directory.  [salt] keeps names distinct across
    processes that share a recycled pid; an atomic counter
    distinguishes tasks within the process.  Raises [Sys_error] when
    the temp root is unusable. *)

val remove_tree : string -> unit
(** Best-effort recursive delete (never raises). *)
