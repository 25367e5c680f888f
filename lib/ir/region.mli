(** Regions: rectangular index sets.

    A region [R = [l1..h1, ..., lr..hr]] names the set of r-dimensional
    indices over which a normalized array statement computes (paper
    §2.1).  Bounds are inclusive and concrete (the frontend resolves
    [config] parameters before lowering). *)

type range = { lo : int; hi : int }
(** One dimension's inclusive bounds.  Empty when [hi < lo]. *)

type t = range array

val of_bounds : (int * int) list -> t
(** [of_bounds [(l1,h1);...]] builds a region; raises
    [Invalid_argument] on an empty list. *)

val rank : t -> int

val range : t -> int -> range
(** [range r i] is dimension [i] (1-indexed). *)

val extent : t -> int -> int
(** [extent r i] is the number of indices along dimension [i]
    (0 when empty). *)

val volume : t -> int
(** Total number of index points. *)

val is_empty : t -> bool

val equal : t -> t -> bool

val shift : t -> Support.Vec.t -> t
(** [shift r d] is the region translated by offset [d]: the indices
    touched by a reference [A@d] executed over [r]. *)

val contains : t -> t -> bool
(** [contains outer inner] holds iff every index of [inner] lies in
    [outer].  An empty [inner] is contained in anything. *)

val inter : t -> t -> t option
(** Intersection, or [None] when empty. *)

val iter : t -> (int array -> unit) -> unit
(** Iterate over all index points in row-major order.  The index array
    passed to the callback is reused between calls. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
