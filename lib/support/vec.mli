(** Integer n-tuples.

    Offsets, unconstrained distance vectors (UDVs) and constrained
    distance vectors are all integer n-tuples; this module is their
    shared representation.  Vectors are immutable by convention: no
    function in this interface mutates its argument, and callers must
    not mutate a vector after sharing it. *)

type t = int array

val make : int -> int -> t
(** [make n k] is the n-tuple (k, ..., k). *)

val zero : int -> t
(** [zero n] is the null vector of rank [n]. *)

val of_list : int list -> t

val to_list : t -> int list

val rank : t -> int
(** Number of components. *)

val get : t -> int -> int
(** [get v i] is the [i]th component, 1-indexed as in the paper. *)

val add : t -> t -> t

val sub : t -> t -> t
(** [sub a b] is the componentwise difference [a - b].  Raises
    [Invalid_argument] if ranks differ. *)

val neg : t -> t

val is_null : t -> bool
(** [is_null v] holds iff every component is zero. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order (lexicographic), suitable for [Set]/[Map] keys. *)

val hash : t -> int
(** A hash over every component (the polymorphic [Hashtbl.hash] reads
    only the first few), so [Hashtbl.Make (Support.Vec)] is a table
    keyed on whole vectors: the planner's probe keys and cluster-id
    vectors. *)

val lex_nonneg : t -> bool
(** Lexicographic nonnegativity (Definition 1): the vector is null or
    its leftmost nonzero component is positive.  A constrained distance
    vector is legal iff it is lexicographically nonnegative. *)

val lex_pos : t -> bool
(** Strict variant: leftmost nonzero component exists and is positive. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(d1,d2,...,dn)]. *)

val to_string : t -> string
