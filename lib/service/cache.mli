(** The LRU-bounded, content-addressed plan cache.

    Amortizing planning across requests is zapd's reason to exist:
    the first request for a program pays the full pipeline (for
    [--plan ilp], thousands of costed states and a branch-and-cut),
    every later request with the same key is a lookup.  Keys are
    {e content} addresses — {!Ir.Prog.fingerprint} of the normalized
    program after every frontend rewrite — plus the planning regime,
    so two textually different files elaborating to the same IR share
    an entry, and no stale entry can ever be returned (a changed
    program changes its key).

    Concurrency: one mutex guards the table; a lookup holds it for one
    hash probe.  Any domain holding the engine may call in: lazy
    contexts on several domains sharing one engine, or callers of
    [Engine.handle] on a {!Support.Pool}.  Values must be immutable or
    internally synchronized — compiled plans are.
    Eviction is exact least-recently-used over the whole [capacity].

    {!find_or_compute} is the single-flight entry: concurrent misses
    on one key wait for the first caller's compute instead of
    repeating a multi-second plan per domain. *)

type key = {
  fingerprint : string;  (** [Ir.Prog.fingerprint] of the program compiled *)
  mode : string;
      (** planning regime: ["greedy:<level>"] or ["ilp"]
          (see {!Engine} for the exact encoding) *)
  machine : string;  (** cost-model target (["-"] when machine-blind) *)
  procs : int;  (** cost-model processor count (0 when machine-blind) *)
}

val key_to_string : key -> string
(** Canonical rendering (also the table key):
    ["<fingerprint>/<mode>@<machine>x<procs>"]. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  entries : int;  (** current population *)
}

type 'v t

val create : ?capacity:int -> unit -> 'v t
(** [capacity] (default 256, min 1) entries. *)

val capacity : _ t -> int

val find : 'v t -> key -> 'v option
(** Lookup; counts a hit or a miss and freshens the entry's LRU
    position. *)

val add : 'v t -> key -> 'v -> unit
(** Insert (first writer wins: values for one key are deterministic,
    so a second insert is dropped), evicting the least-recently-used
    entry when full. *)

val find_or_compute :
  'v t -> key -> (unit -> ('v, 'e) result) -> ('v * bool, 'e) result
(** {!find}, or on a miss [compute ()] and {!add} of an [Ok] result,
    with [true] exactly when this call counted a hit.  Each call counts
    one hit or one miss.  [compute] runs outside the lock; a caller
    that misses while another computes the same key waits for it and
    takes its value (having counted a miss).  An [Error] is not cached,
    and a [compute] that raises releases the key: a waiter then
    computes in its turn. *)

val stats : _ t -> stats
