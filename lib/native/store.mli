(** Content-addressed store of compiled native artifacts.

    An artifact — the runner executable plus its source — is a pure
    function of the emitted C ({!Sir.Emit_c.to_string}), the compile
    command, and the toolchain that answered the probe; its
    {e content key} is a 64-bit hash of exactly those, so a plan
    recompiled to identical C (same fingerprint, same planning regime)
    reuses the artifact with zero cc invocations, across requests
    {e and} across process restarts (the store root survives on disk;
    a re-started daemon re-adopts artifacts it finds there without
    recompiling).  Only a sound artifact is adopted: its [meta] reads
    {!Toolchain.describe} and its [runner] is a non-empty regular file.
    Anything else at the key (a truncated runner, a missing [meta], one
    naming another toolchain) is moved aside to
    [<root>/unsound-<key>-...] and rebuilt as on a miss.

    Layout: [<root>/<key16hex>/] holding [prog.c], [runner] and a
    one-line [meta] provenance file.  Builds go to a private
    [<root>/tmp-...] directory and are published by an atomic
    [rename]; a concurrent process that loses the race adopts the
    winner's artifact.  Within a process, a mutexed memo makes the
    warm path a hash lookup, and concurrent {!get}s of one content key
    share one build: the first compiles, the others wait for it. *)

type t

type artifact = {
  key : string;  (** 16-hex content address *)
  runner : string;  (** absolute path of the executable *)
  units : int;  (** fused clusters, one C function each *)
  compiler : string;  (** {!Toolchain.describe} at build time *)
}

val default_root : unit -> string
(** [<tmpdir>/zap-native-store-<uid>]. *)

val create : ?root:string -> unit -> t
(** The root is created on first use, not here; a root that cannot be
    created makes {!get} return an error. *)

val root : t -> string

val get : t -> Sir.Code.program -> (artifact * bool, Build.error) result
(** The artifact for this program's emitted C, building it if no
    process has yet.  The boolean is [true] when this call actually
    compiled (a fresh build) — [false] on every reuse, whether from
    the memo, after waiting for a concurrent build of the same key, or
    adopted from disk; rebuilding an unsound artifact is a fresh
    build.  A failed build is not memoized: a waiter then
    builds in its turn.  An unusable root or temp dir is an error
    whose detail starts with ["store: "]; [get] does not raise. *)

type stats = { builds : int; reuses : int }

val stats : t -> stats
(** Per-store counters: [builds] counts the calls that compiled,
    [reuses] the others that succeeded. *)
