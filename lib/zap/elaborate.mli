(** Elaboration: surface syntax → array IR.

    Resolves config constants (with optional command-line overrides),
    regions and directions; checks ranks, scopes and bounds; and
    {e normalizes} statements: any statement that reads the array it
    writes — which F90/ZPL array semantics permit but normal form
    (§2.1) does not — is split through a fresh compiler temporary
    [__tN], exactly the always-insert policy the paper advocates
    (§5.1): the temporary is a first-class contraction candidate, and
    when it is not truly needed the optimizer is guaranteed to contract
    it unless a more favorable contraction prevails. *)

exception Error of int * string
(** [(line, message)]; line 0 for program-level errors. *)

val elaborate : ?config:(string * float) list -> Ast.program -> Ir.Prog.t
(** [config] overrides declared config defaults by name.  The result
    always satisfies [Ir.Prog.validate]. *)

val compile_string : ?config:(string * float) list -> string -> Ir.Prog.t
(** Parse and elaborate.  Raises {!Error}, {!Parser.Error} or
    {!Lexer.Error}. *)
