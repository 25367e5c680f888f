(** Reference weights (paper §3).

    The number of array element references eliminated by contracting
    array [x] — a function of how many times it is referenced at the
    array level and of the region sizes over which those references
    occur.  The fusion algorithm considers arrays in order of
    decreasing weight so that the arrays with the largest potential
    impact on total contraction benefit are attempted first. *)

val weight : Asdg.t -> string -> int
(** [weight g x] = Σ over statements of (references to [x]) × |region|. *)

val by_decreasing_weight : Asdg.t -> string list -> string list
(** Stable sort of the given arrays by decreasing {!weight} (ties keep
    first-occurrence order, making the optimizer deterministic). *)
