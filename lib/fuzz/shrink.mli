(** Greedy structural shrinking of failing programs.

    [run ~check p] repeatedly replaces [p] by the first one-step
    simplification that is still {!Ir.Prog.validate}-clean and for
    which [check] still returns [true] ("the divergence still
    reproduces"), until no simplification does or the check budget
    runs out.  Simplification steps: drop a statement, unwrap or
    collapse a loop, shrink a region extent, zero a write offset,
    replace a subexpression by a child or a constant, drop a live-out
    or an unused declaration. *)

val run : ?max_checks:int -> check:(Ir.Prog.t -> bool) -> Ir.Prog.t -> Ir.Prog.t
(** [max_checks] bounds the number of [check] invocations (default
    400); the original [p] is assumed to already satisfy [check]. *)
