(** Array contraction decisions (Definition 6).

    Given a fusion partition, decides which arrays can be replaced by
    scalars upon scalarization.  The caller supplies the globally
    eligible [candidates] (arrays confined to this block and not
    live-out, per [Ir.Prog.confined_arrays]); this module adds the
    block-local conditions: no upward-exposed read, all dependences
    within one fusible cluster, all UDVs null.

    [decide_partial] implements the extension the paper leaves as
    future work (§5.2, motivated by SP): contraction to
    {e lower-dimensional} arrays.  An array whose references within
    its single cluster all use offset 0 in some dimensions can drop
    those dimensions from its allocation — a scalar being the extreme
    case where every dimension is dropped. *)

type shape =
  | Scalar  (** full contraction: the array becomes a register-resident scalar *)
  | Keep_dims of bool array
      (** partial contraction: [true] marks dimensions that must be
          retained in storage (at least one reference carries a nonzero
          offset there) *)

val decide : Partition.t -> candidates:string list -> string list
(** Arrays fully contractible to scalars under the given partition, in
    candidate order.  The decision a compile makes: it emits a
    [contraction.candidates] event per candidate and a
    [contraction.performed] event per contraction. *)

val scalars : Partition.t -> candidates:string list -> string list
(** [decide]'s result without its events, for callers that only price
    a partition (the search's seeds, the ILP's ranking): a priced
    partition is not a decision, so it must not count as one. *)

val scalar_if_confined : Asdg.t -> string -> bool
(** [decide]'s test for an array whose referencing statements all lie
    in one cluster: its first reference writes it and every dependence
    on it has a null UDV.  A dependence on an array joins two
    statements that reference it, so once they share a cluster every
    such dependence lies inside it.  Fixed for the block: [decide p]
    contracts exactly the candidates that pass it and whose
    referencing statements share a cluster of [p], which is how the
    planners price partitions without calling [decide]. *)

val decide_partial :
  Partition.t -> candidates:string list -> (string * shape) list
(** Full and partial contractions.  Arrays reported with [Keep_dims]
    would not be contracted by the paper's algorithm; retaining the
    marked dimensions only is sound because all dependences due to the
    array have zero distance in every dropped dimension (see
    DESIGN.md §5.7). *)

val shape_volume : Ir.Region.t -> shape -> int
(** Number of elements the contracted allocation still needs (1 for
    [Scalar]). *)

val shape_name : shape -> string
(** ["scalar"], or ["keep-dims:1,3"]-style for partial contraction —
    the stable spelling used in observability events and JSON
    reports. *)
