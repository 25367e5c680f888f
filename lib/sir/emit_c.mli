(** The C back end: the one printer of the scalar IR as C.

    {!emit} prints one complete, runnable translation unit.  It is the
    text [zapc --dump-c] and [--emit-c] show, and the text the native
    engine ([Native.Build]), the fuzz oracle and the native
    differential tests compile.  In order:

    - the includes and the bit-exact helpers: [hashrand], the
      NaN-propagating [zap_min]/[zap_max] and the digest's [mix];
    - the array storage and the scalars, with external linkage, so the
      compiler can neither fold a configuration scalar nor drop a store
      that nothing in the unit reads;
    - one [static] function [cluster_<k>] per fused cluster, marked
      [noinline] under GCC and Clang so each cluster stays its own
      function in the object code.  A cluster is an outermost loop nest
      together with the scalar assignments just before it (reduction
      initializations and the like); a trailing run of scalar
      statements is one more;
    - a [main] that calls the clusters in program order under a
      [CLOCK_MONOTONIC] stopwatch, digests the live-out set and prints
      the runner line

    {v <16-hex live-out digest> <wall nanoseconds> v}

    The digest is byte-identical to {!Exec.Interp.checksum}: every
    primitive maps to the operation OCaml itself uses (IEEE doubles
    throughout, libm for sqrt/sin/..., [hashrand] ported bit for bit,
    the digest arithmetic in wrapping [uint64_t]), provided the
    compiler neither folds libm calls nor contracts to fma — see
    [Native.Toolchain.cc_argv].  The nanoseconds cover the cluster
    calls only.

    Scalars and loop variables are emitted with a [v_] prefix and
    arrays behind [AT_] accessor macros, so user names can never
    collide with libc/libm symbols (a config named [gamma], say). *)

val emit : Format.formatter -> Code.program -> unit
(** Print the translation unit. *)

val to_string : Code.program -> string
(** {!emit} into a string. *)

val cluster_count : Code.program -> int
(** How many [cluster_<k>] functions {!emit} prints. *)
