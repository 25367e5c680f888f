(** Structured observability for the compilation pipeline.

    The paper's argument rests on {e explaining} optimizer decisions —
    which statements fused, which arrays contracted and why, where the
    cache misses and messages went.  This library is the shared
    substrate: hierarchical {e pass spans} with wall-clock timings,
    typed {e counters} and {e events} recording every fusion attempt
    (with the Definition 5/6 reason that vetoed a rejected merge),
    contraction decisions, dependence-edge counts, interpreter and
    cache totals, and per-optimization communication savings.

    Instrumentation points ({!span}, {!count}, {!event}) are dynamically
    scoped {e per domain}: they report to the recorder installed by the
    innermost {!run} in the current domain, and compile to a single
    domain-local read when none is installed — the null-sink
    configuration adds no measurable overhead.  Recorders are plain
    mutable state and must not be shared between domains; parallel
    drivers record into one recorder per task and combine them with
    {!merge}.

    The library also hosts the two cross-layer value types of the
    driver/CLI API: {!Json} (report serialization, no external
    dependencies) and {!Diagnostic} (the error type of the result-based
    [Driver.compile] and of the [zapc] command line). *)

(** Minimal JSON values: enough to serialize compile reports and bench
    rows, and to parse them back in tests. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact one-line rendering (valid JSON; floats keep full
      round-trip precision). *)

  val pp : Format.formatter -> t -> unit
  (** Indented multi-line rendering. *)

  val of_string : string -> (t, string) result
  (** Strict, total parser for the subset this module prints (numbers,
      strings with the common escapes, arrays, objects).  Malformed
      input, including a [\u] escape without four hex digits and
      nesting deeper than {!max_depth}, is an [Error], never an
      exception. *)

  val max_depth : int
  (** {!of_string} rejects a value nested inside more than this many
      arrays and objects. *)

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] elsewhere. *)

  val find : t -> string list -> t option
  (** Nested field lookup along a path. *)
end

(** Bidirectional JSON codecs: one description of a wire type gives
    both its encoder and its decoder, so the two cannot disagree on a
    member name, a default or an omission rule.

    Decoding is lenient where the wire protocol needs it: unknown
    object members are ignored, a member with a [default] may be
    absent, [null] decodes to [None] under {!nullable}, and an
    integral float in the [int] range decodes as an {!int}. *)
module Codec : sig
  type 'a t

  val encode : 'a t -> 'a -> Json.t
  val decode : 'a t -> Json.t -> ('a, string) result

  (** {2 Values} *)

  val string : string t
  val bool : bool t
  val int : int t
  (** Also accepts an integral [Float] inside the [int] range. *)

  val float : float t
  (** Encodes as [Float]; also accepts an [Int]. *)

  val json : Json.t t
  (** Any value, unchanged. *)

  val const : Json.t -> unit t
  (** Exactly this value; anything else fails to decode. *)

  val check : ('a -> (unit, string) result) -> 'a t -> 'a t
  (** [check f c]: [c], except that a decoded value [f] refuses fails
      to decode, with [f]'s message. *)

  val conv : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t
  (** [conv of_a to_a c]: a ['b] carried as [c]'s ['a]. *)

  val list : 'a t -> 'a list t
  val assoc : 'a t -> (string * 'a) list t
  (** A string-keyed object, members in list order. *)

  val nullable : 'a t -> 'a option t
  (** [None] is [null]. *)

  val enum : (string * 'a) list -> 'a t
  (** Each value as its name (a string). *)

  val fix : ('a t -> 'a t) -> 'a t
  (** A recursive codec: [fix (fun self -> ...)]. *)

  (** {2 Objects}

      A record is described member by member, in wire order, starting
      from its constructor:
      [obj (record (fun a b -> {a; b}) |+ field "a" int (fun r -> r.a)
      |+ field "b" string (fun r -> r.b))]. *)

  type ('r, 'a) fields
  (** Members written from an ['r] and read back as an ['a]. *)

  val record : 'k -> ('r, 'k) fields
  val ( |+ ) : ('r, 'a -> 'k) fields -> ('r, 'a) fields -> ('r, 'k) fields

  val field :
    ?default:'a ->
    ?omit:('r -> bool) ->
    string ->
    'a t ->
    ('r -> 'a) ->
    ('r, 'a) fields
  (** One member.  [default] is decoded when the member is absent
      (without it, absence is an error); [omit r] drops the member
      when encoding [r]. *)

  val opt : string -> 'a t -> ('r -> 'a option) -> ('r, 'a option) fields
  (** A member written only when [Some]; absent or [null] is [None]. *)

  val spread : ('a, 'a) fields -> ('r -> 'a) -> ('r, 'a) fields
  (** Another description's members, inline in this object. *)

  val obj : ('a, 'a) fields -> 'a t

  (** {2 Variants} *)

  type 'a case

  val case : ('p, 'p) fields -> ('a -> 'p option) -> ('p -> 'a) -> 'a case
  (** [case members proj inj]: the values [proj] maps to [Some],
      carried as [members] and rebuilt with [inj]. *)

  val variant : string -> 'k t -> ('k * 'a case) list -> ('a, 'a) fields
  (** [variant key tag cases] is tag-dispatched: member [key] holds the
      case's tag, encoded with [tag], and the case's own members follow
      in the same object. *)

  val keyed : (string * 'a case) list -> ('a, 'a) fields
  (** Dispatched by presence: the first case whose key is a member of
      the object is decoded. *)
end

(** Uniform compiler diagnostics: the error type of the result-based
    driver API and of all [zapc] command-line failures. *)
module Diagnostic : sig
  type severity = Error | Warning

  type t = {
    severity : severity;
    phase : string;  (** pipeline stage or CLI area: "parse", "check", "cli", ... *)
    loc : (string * int) option;  (** (file-or-input-name, 1-based line) *)
    message : string;
  }

  val error : ?loc:string * int -> phase:string -> string -> t
  val warning : ?loc:string * int -> phase:string -> string -> t

  val errorf :
    ?loc:string * int ->
    phase:string ->
    ('a, unit, string, t) format4 ->
    'a

  val to_string : t -> string
  (** ["zapc: check error: invalid program ..."]-style one-liner, with
      the location prefixed when present. *)

  val pp : Format.formatter -> t -> unit

  val codec : t Codec.t
  (** [{"severity", "phase", "file"?, "line"?, "message"}]: [loc] is
      spread over [file] and [line]. *)
end

exception Error of Diagnostic.t
(** Raised by the [_exn] convenience wrappers of result-based APIs. *)

(** {1 Events and counters} *)

(** Why a fusion merge attempt was rejected: the Definition 5 legality
    conditions, the Definition 6 contractibility precondition of
    FUSION-FOR-CONTRACTION, or an external veto ([may_fuse], the
    communication-integration hook). *)
type fusion_reason =
  | Not_contractible  (** Def. 6: candidate array not contractible within the grown cluster set *)
  | Region_mismatch  (** Def. 5(i): statements iterate different regions *)
  | Nonnull_flow  (** Def. 5(ii): a loop-carried flow dependence would be internalized *)
  | No_loop_structure  (** Def. 5(iv): FIND-LOOP-STRUCTURE returned NOSOLUTION *)
  | Cycle  (** merged cluster graph would be cyclic *)
  | External_veto  (** the [may_fuse] hook refused (favor-communication mode) *)

val fusion_reason_name : fusion_reason -> string
(** Stable kebab-case name, used as counter suffix and in JSON. *)

type event =
  | Fusion_attempt of { array : string option; clusters : int }
      (** a merge of [clusters] clusters was attempted, driven by
          [array] ([None] for the greedy pairwise sweep) *)
  | Fusion_accept of { array : string option; clusters : int }
  | Fusion_reject of { array : string option; reason : fusion_reason }
  | Contraction_candidate of { array : string }
  | Contraction_perform of { array : string; shape : string }
      (** [shape] is ["scalar"] or ["dims:0110"]-style for partial
          contraction *)
  | Reduction_absorbed of { reduce : int; cluster : int }
  | Note of { name : string; value : string }  (** free-form marker *)

(** {1 Spans and reports} *)

type span = {
  span_name : string;
  elapsed_ns : float;
  children : span list;  (** in execution order *)
}

type report = {
  spans : span list;  (** top-level spans, in execution order *)
  counters : (string * int) list;  (** sorted by name *)
  totals : (string * float) list;  (** float-valued counters, sorted *)
  events : event list;  (** in emission order *)
}

(** {1 Sinks and recorders} *)

type sink
(** Receives streamed notifications as instrumentation fires (the
    recorder accumulates the report regardless of sink). *)

val null_sink : sink
(** Accumulate only; stream nothing. *)

val text_sink : Format.formatter -> sink
(** Stream an indented span tree with timings, and one line per event
    — the [--trace] rendering. *)

type t
(** A recorder: accumulates spans, counters and events. *)

val create : ?sink:sink -> unit -> t
(** Fresh recorder.  The fusion and contraction counters are pre-seeded
    to 0 so reports have a stable key set. *)

val run : t -> (unit -> 'a) -> 'a
(** [run t f] installs [t] as the current recorder for the dynamic
    extent of [f] (restored on exceptions; nested [run]s shadow). *)

val report : t -> report
(** Snapshot of everything recorded so far.  Open spans are excluded. *)

val merge : t -> report -> unit
(** [merge t r] folds a finished child recorder's report into [t]:
    counters and totals add; [r]'s top-level spans and events append
    after everything already in [t].  Parallel sweep drivers give each
    task its own recorder (recorders are domain-local, see {!run}) and
    merge the reports back in task order, which makes the combined
    report deterministic regardless of domain scheduling. *)

val active : unit -> t option
(** The recorder installed in the {e current domain}, if any ([run]
    installs per-domain: a recorder installed by the caller is not
    visible inside [Support.Pool] workers). *)

(** {1 Instrumentation points}

    All are no-ops (one [ref] read) when no recorder is installed. *)

val enabled : unit -> bool
(** [true] iff a recorder is installed — guard allocation-heavy
    event construction in hot paths with this. *)

val now_ns : unit -> float
(** The monotonic clock (CLOCK_MONOTONIC) in nanoseconds — the time
    base of every {!span}.  Monotone non-decreasing across calls:
    immune to NTP steps, so span durations are never negative.  The
    epoch is unspecified; only differences are meaningful. *)

val span : string -> (unit -> 'a) -> 'a
(** Time [f] as a child of the innermost open span. *)

val count : string -> int -> unit
(** Add to a named integer counter. *)

val total : string -> float -> unit
(** Add to a named float accumulator (ns saved, bytes, ...). *)

val event : event -> unit
(** Record an event and bump the counter it names (e.g. [Fusion_reject]
    with [Nonnull_flow] bumps ["fusion.rejected.nonnull-flow"]; a
    [Note] bumps none). *)

(** {1 Rendering} *)

val report_to_json : report -> Json.t
(** Stable schema: [{"spans": [{"name", "ns", "children"}...],
    "counters": {...}, "totals": {...}}]. *)

val pp_report : Format.formatter -> report -> unit
