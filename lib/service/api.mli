(** The unified typed request API of the compile-and-run service.

    One request/response vocabulary serves every consumer: [zapc]
    builds a {!request} from its command line and renders the
    {!response} — whether the request was handled by an in-process
    {!Engine} or proxied to a running [zapd] over a Unix-domain socket
    ([--connect]) — and [zapd] speaks exactly these types over its
    wire protocol.  CLI and server cannot drift because neither owns a
    private schema: the JSON codecs here {e are} the protocol
    (newline-delimited JSON objects, one request and one response per
    line; grammar in docs/zapd.md).

    Responses are deliberately free of cache- or timing-dependent
    fields: a response is a pure function of its request and the
    engine configuration, which is what makes replies byte-identical
    across cold/warm caches and at any [--jobs] (the PR 5 determinism
    bar).  The single exception is [native_wall_ns] — a real machine's
    wall clock — inside an explicitly requested {!native_summary}; the
    stats {e shape} (field set and order) still never varies with
    cache state.  Cache effectiveness is observable only through the
    aggregate {!Stats} request. *)

val protocol_version : int
(** Bumped on any incompatible wire change.  Every request is written
    with it as its ["v"] member; [zapd] answers a request carrying
    another ["v"] with a protocol diagnostic naming both versions
    (absent means current). *)

(** {1 Requests} *)

type source =
  | Bench of { name : string; tile : int option }
      (** a built-in benchmark of {!Suite}, with an optional tile-edge
          override *)
  | Text of { name : string; text : string }
      (** zap source text; [name] labels diagnostics (the client's
          file path) *)

type plan_mode = Greedy | Ilp

val plan_modes : (string * plan_mode) list
(** Every mode with its wire spelling, ["greedy"] then ["ilp"]. *)

type compile_opts = {
  level : string;  (** optimization level, any spelling {!Compilers.Driver.level_of_name} accepts *)
  plan : plan_mode;
  config : (string * float) list;  (** config-constant overrides, in override order *)
  merge : bool;  (** run statement merge before the optimizer *)
  simplify : bool;  (** run the scalar back end (constant folding + CSE) *)
  dump_ir : bool;  (** include the rendered array IR in the response *)
  dump_plan : bool;  (** include the rendered fusion/contraction plan *)
  dump_c : bool;  (** include the generated C ({!Sir.Emit_c.to_string}) *)
  emit_c : bool;  (** the same text, for [zapc --emit-c] to write to a file *)
}

val default_compile_opts : compile_opts
(** [level = "c2+f3"], [plan = Greedy], everything else off/empty. *)

type target = { machine : string; procs : int }
(** The machine model a run, or a request planned with [Ilp], is
    priced against (any spelling {!machine_of_name} accepts). *)

val default_target : target
(** [{ machine = "t3e"; procs = 1 }]. *)

type request =
  | Compile of { source : source; opts : compile_opts; target : target }
      (** optimize + scalarize (plan cache consulted); [target] only
          matters under [plan = Ilp], which prices plans against it
          (and keys the cache on it) *)
  | Run of {
      source : source;
      opts : compile_opts;
      target : target;
      spmd : bool;  (** also execute on the simulated processor grid *)
      native : bool;
          (** also compile the plan's emitted C to a native runner
              (artifact-cached next to the plan) and execute it *)
    }
  | Plan of { source : source; opts : compile_opts; target : target }
      (** like [Compile] but the response centers on planning: the
          rendered plan is always included, with provenance when
          [plan = Ilp] *)
  | Stats  (** server/cache counters *)
  | Shutdown  (** orderly daemon exit (acknowledged before closing) *)

(** {1 Responses} *)

type summary = {
  program : string;
  level : string;  (** paper spelling of the level actually compiled *)
  arrays_total : int;
  contracted_compiler : int;
  contracted_user : int;
  remaining : int;  (** allocations surviving contraction *)
  footprint_bytes : int;
  contracted : (string * string) list;  (** (array, shape) in decision order *)
  merged_away : string list;  (** arrays eliminated by statement merge *)
  fingerprint : string;  (** {!Ir.Prog.fingerprint} — the cache-key content address *)
  dump_ir : string option;
  dump_plan : string option;
  dump_c : string option;
  emit_c : string option;
}

type perf = {
  machine : string;  (** display name, e.g. ["Cray T3E"] *)
  procs : int;
  time_ns : float;
  comp_ns : float;
  comm_ns : float;
  flops : int;
  loads : int;
  stores : int;
  l1_miss_pct : float;
  l2_miss_pct : float option;
  messages : int;
  msg_bytes : int;
  checksum : string;
}

type native_summary = {
  native_checksum : string;  (** live-out digest printed by the runner *)
  native_wall_ns : int64;
      (** monotonic nanoseconds over the cluster calls — the one
          timing-dependent field in a [Ran] response; everything else
          is byte-identical cold vs warm *)
  native_compiler : string;  (** toolchain description at build time *)
  native_units : int;  (** fused clusters, one C function each *)
  native_matches : bool;  (** [native_checksum] equals [perf.checksum] *)
}

type cache_stats = {
  cache_capacity : int;
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
}

type server_stats = {
  requests : (string * int) list;
      (** per-verb served counts, keyed by the {!Metrics} counter
          names, sorted *)
  cache : cache_stats;
  compiles_computed : int;
  plans_computed : int;
  natives_built : int;  (** cold cc compile+links actually performed *)
  natives_reused : int;  (** artifacts served without recompiling *)
  native_runs : int;
}

type response =
  | Compiled of {
      summary : summary;
      provenance : Plan.Driver.provenance option;
          (** present under [Ilp] *)
    }
  | Ran of {
      summary : summary;
      provenance : Plan.Driver.provenance option;
      perf : perf;
      spmd : Spmd.report option;
          (** the SPMD engine's report, carried by {!Spmd.report_codec}:
              the same object [zapc --stats] writes as its [spmd]
              section *)
      native : native_summary option;
    }
  | Planned of {
      summary : summary;
      provenance : Plan.Driver.provenance option;
    }
  | Stats_reply of server_stats
  | Shutting_down
  | Failed of Obs.Diagnostic.t

(** {1 Shared validation}

    Both the CLI and the engine resolve names through these, so the
    accepted spellings cannot diverge. *)

val machine_of_name : string -> (Machine.t, Obs.Diagnostic.t) result
(** ["t3e"], ["sp2"]/["sp-2"], ["paragon"], case-insensitively. *)

val machine_of_target : target -> (Machine.t, Obs.Diagnostic.t) result
(** {!machine_of_name} of the target's machine, after checking
    [procs >= 1].  The engine resolves every target it prices or runs
    through this, so a bad processor count is a typed failure, the
    same locally and over the wire. *)

val level_of_name : string -> (Compilers.Driver.level, Obs.Diagnostic.t) result
(** {!Compilers.Driver.level_of_name} with the CLI's diagnostic. *)

(** {1 Wire codecs}

    Each wire type is described once, as an {!Obs.Codec}, and both
    directions come from that description (grammar in docs/zapd.md),
    so every value round-trips.  Decoding ignores unknown members,
    defaults an absent [opts], [target] or flag, reads an absent or
    [null] optional member as [None], and takes an integral float in
    the [int] range as an integer. *)

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, string) result
val response_to_json : response -> Obs.Json.t
val response_of_json : Obs.Json.t -> (response, string) result

val request_of_line : string -> (request, string) result
(** Parse one protocol line. *)

val native_codec : native_summary Obs.Codec.t
(** The [native] member of a [ran] reply, also written by
    [zapc --stats]. *)
