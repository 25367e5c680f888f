(** The array statement dependence graph (Definition 3).

    A labeled acyclic digraph over the statements of one basic block.
    Vertices are statement indices in source order; an edge [(i, j)]
    with [i < j] means statement [j] depends on statement [i], and its
    label lists the inducing (variable, UDV, type) triples.  Acyclicity
    is by construction: edges always point from earlier to later
    statements of a single basic block. *)

type t

val build : Ir.Nstmt.t list -> t
(** Computes all pairwise dependences.  O(s²·refs).  Also tabulates,
    once, the per-array answers of {!vars}, {!deps_on} and
    {!stmts_referencing}: the planners ask them for every candidate
    array of every state they price, so each is a lookup.  The value
    is read-only afterwards and safe to share across domains. *)

val n : t -> int
(** Number of statements (vertices). *)

val stmt : t -> int -> Ir.Nstmt.t

val stmts : t -> Ir.Nstmt.t array

val edges : t -> (int * int) list
(** All edges, each with a nonempty label, ordered lexicographically. *)

val labels : t -> int -> int -> Dep.label list
(** Labels on edge [(i, j)]; [[]] if absent. *)

val vars : t -> string list
(** Distinct arrays referenced anywhere in the block, in first-
    occurrence order. *)

val deps_on : t -> string -> ((int * int) * Dep.label) list
(** Every dependence induced by the given variable, in {!edges} order
    and, within an edge, in {!labels} order. *)

val stmts_referencing : t -> string -> int list
(** Indices of statements that reference the array, ascending. *)

val pp : Format.formatter -> t -> unit
