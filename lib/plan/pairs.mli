(** The per-block statement table both planners read.

    {!Search.block} and {!Ilp.block} each build one for the block they
    plan, on the calling domain, and answer every per-pair and per-set
    question of Definition 5 from it by index:

    - per statement pair: whether (i) their regions are equal, (ii) a
      loop-carried (non-null) flow dependence runs between them, and
      (iv) FIND-LOOP-STRUCTURE accepts the UDVs of the dependences
      between them; and those UDVs;
    - per statement set: the verdict of conditions (i), (ii) and (iv),
      memoized on the set.

    Statement sets are bitsets: [words t] ints, statement [i] at bit
    [i mod Sys.int_size] of word [i / Sys.int_size], the same
    representation at every block size. *)

type t

val create : Core.Asdg.t -> t
(** The block's pair table: O(n²) pairs, each one FIND-LOOP-STRUCTURE
    call at most (only for a pair of equal regions with dependences and
    no loop-carried flow between them). *)

val words : t -> int
(** Ints in one statement set of the block. *)

val add : int array -> int -> unit
(** [add set i] puts statement [i] in [set]. *)

val compat : t -> int -> int -> bool
(** [compat t i j] ([i <> j]): the pair alone satisfies Definition 5
    (i), (ii) and (iv) — equal regions, no loop-carried flow between
    them, and a loop structure for the UDVs of their dependences.
    Symmetric. *)

val udvs : t -> int -> int -> Support.Vec.t list
(** [udvs t i j], [i < j]: the UDVs of the dependences from [i] to [j],
    in [Core.Asdg.labels] order ([[]] when there are none). *)

val vet : t -> int array -> (unit, Core.Partition.veto) result
(** Definition 5 (i), (ii) and (iv) on a statement set, with the first
    violated condition, exactly as [Core.Partition.check_merge] reports
    them for those statements (it never reports [Cycle]).  (i) and (ii)
    hold of a set exactly when they hold of every pair in it, so they
    are read per pair; then FIND-LOOP-STRUCTURE runs once, over the
    UDVs of the set's pairs in ASDG edge order — the list
    [check_merge] passes it.

    Memoized on the set, which the table keeps: do not mutate it
    afterwards.  Not safe to call from two domains at once. *)
