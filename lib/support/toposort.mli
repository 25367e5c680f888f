(** Topological sorting and reachability over small integer digraphs.

    Graphs are given as a node count [n] (nodes are [0 .. n-1]) and an
    edge list.  Used to order fusible clusters, to order statements
    inside a cluster, to check a partition's cluster graph for cycles,
    and for the communication model's dependence relatedness. *)

val sort : n:int -> edges:(int * int) list -> int list option
(** [sort ~n ~edges] is a topological order of the nodes ([Some order]),
    or [None] if the graph has a cycle.  The order is stable: among
    unconstrained nodes, lower-numbered nodes come first (so statement
    order in generated code follows source order whenever legal). *)

val sort_exn : n:int -> edges:(int * int) list -> int list
(** Like {!sort} but raises [Invalid_argument] on a cycle. *)

val reachable : n:int -> edges:(int * int) list -> from:int list -> bool array
(** [reachable ~n ~edges ~from] marks every node reachable from any
    node of [from] by a (possibly empty) directed path. *)

val has_cycle : n:int -> edges:(int * int) list -> bool
