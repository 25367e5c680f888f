(** Set-associative write-allocate LRU cache simulator.

    Trace-driven: feed it the byte addresses produced by the
    instrumented interpreter and read back hit/miss counts.  This is
    the stand-in for the papers' machines' data caches — the paper's
    runtime effects (temporal locality from fusion and contraction,
    cache pollution from over-fusion) are all functions of this
    model. *)

type config = {
  size_bytes : int;
  line_bytes : int;  (** power of two *)
  assoc : int;  (** 1 = direct-mapped *)
}

val config_sets : config -> int
(** Number of sets; raises [Invalid_argument] on inconsistent
    geometry (size not divisible by line·assoc, line not a power of
    two). *)

type stats = {
  accesses : int;
  hits : int;
  misses : int;
}

type t

val create : config -> t
val access : t -> addr:int -> bool
(** Touch one byte address; returns [true] on hit.  The whole
    containing line is installed on miss (write-allocate). *)

val invalidate : t -> addr:int -> unit
(** Return the set holding [addr] to its freshly created state: every
    way invalid and unstamped.  The counters and the LRU clock are left
    alone.  Once every set an access sequence touched is invalidated,
    the cache answers any later sequence exactly as a fresh one does,
    so a caller that reads misses as counter deltas can reuse one cache
    for many short simulations, paying per set touched rather than per
    set of the cache.  O(assoc). *)

val stats : t -> stats
val miss_rate : stats -> float

module Hierarchy : sig
  (** Two-level hierarchy: accesses filter through L1; L1 misses go to
      L2 (when present).  Not inclusive: an L2 eviction leaves the line
      in L1, and an L1 hit does not refresh the line's L2 age.  No
      prefetching — the 1998-era machines modelled here had neither
      aggressive prefetch nor victim buffers worth modelling. *)

  type h

  val create : l1:config -> ?l2:config -> unit -> h
  val access : h -> addr:int -> write:bool -> unit
  val invalidate : h -> addr:int -> unit
  (** {!Cachesim.Cache.invalidate} on each level: the sets holding
      [addr] in L1 and in L2 return to their freshly created state.
      Every L2 set a sequence touches holds one of its addresses, so
      invalidating every address it accessed leaves a hierarchy that
      answers as a fresh one does. *)

  val l1_stats : h -> stats
  val l2_stats : h -> stats option

  val observe : ?prefix:string -> h -> unit
  (** Push the hierarchy's hit/miss totals into the installed [Obs]
      recorder as ["<prefix>.l1.hits"]-style counters (default prefix
      ["cache"]); a no-op when observability is disabled.  The hot
      {!access} path itself is never instrumented — callers snapshot
      once per simulation. *)
end
