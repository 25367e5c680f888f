module Json = Obs.Json
module Diag = Obs.Diagnostic
module C = Obs.Codec

let protocol_version = 4

(* Each wire type is followed by its codec, the one description of its
   JSON shape: both directions come from it. *)

(* a boolean member written only when true *)
let flag name get =
  C.field name C.bool get ~default:false ~omit:(fun r -> not (get r))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type source =
  | Bench of { name : string; tile : int option }
  | Text of { name : string; text : string }

(* the key present tells which source is sent *)
let source =
  let open C in
  let bench =
    case
      (record (fun name tile -> (name, tile))
      |+ field "bench" string fst |+ opt "tile" int snd)
      (function Bench { name; tile } -> Some (name, tile) | Text _ -> None)
      (fun (name, tile) -> Bench { name; tile })
  in
  let text =
    case
      (record (fun name text -> (name, text))
      |+ field "name" string fst |+ field "text" string snd)
      (function Text { name; text } -> Some (name, text) | Bench _ -> None)
      (fun (name, text) -> Text { name; text })
  in
  obj (keyed [ ("bench", bench); ("text", text) ])

type plan_mode = Greedy | Ilp

let plan_modes = [ ("greedy", Greedy); ("ilp", Ilp) ]

type compile_opts = {
  level : string;
  plan : plan_mode;
  config : (string * float) list;
  merge : bool;
  simplify : bool;
  dump_ir : bool;
  dump_plan : bool;
  dump_c : bool;
  emit_c : bool;
}

let default_compile_opts =
  {
    level = "c2+f3";
    plan = Greedy;
    config = [];
    merge = false;
    simplify = false;
    dump_ir = false;
    dump_plan = false;
    dump_c = false;
    emit_c = false;
  }

let compile_opts =
  let open C in
  let d = default_compile_opts in
  obj
    (record
       (fun level plan config merge simplify dump_ir dump_plan dump_c emit_c ->
         { level; plan; config; merge; simplify; dump_ir; dump_plan; dump_c;
           emit_c })
    |+ field "level" string (fun o -> o.level) ~default:d.level
    |+ field "plan" (enum plan_modes) (fun o -> o.plan) ~default:d.plan
    |+ field "config" (assoc float) (fun o -> o.config) ~default:d.config
         ~omit:(fun o -> o.config = [])
    |+ flag "merge" (fun o -> o.merge)
    |+ flag "simplify" (fun o -> o.simplify)
    |+ flag "dump_ir" (fun o -> o.dump_ir)
    |+ flag "dump_plan" (fun o -> o.dump_plan)
    |+ flag "dump_c" (fun o -> o.dump_c)
    |+ flag "emit_c" (fun o -> o.emit_c))

type target = { machine : string; procs : int }

let default_target = { machine = "t3e"; procs = 1 }

let target =
  let open C in
  obj
    (record (fun machine procs -> { machine; procs })
    |+ field "machine" string (fun t -> t.machine)
         ~default:default_target.machine
    |+ field "procs" int (fun t -> t.procs) ~default:default_target.procs)

type request =
  | Compile of { source : source; opts : compile_opts; target : target }
  | Run of {
      source : source;
      opts : compile_opts;
      target : target;
      spmd : bool;
      native : bool;
    }
  | Plan of { source : source; opts : compile_opts; target : target }
  | Stats
  | Shutdown

(* the members compile, run and plan share *)
let source_opts_target =
  let open C in
  record (fun s o t -> (s, o, t))
  |+ field "source" source (fun (s, _, _) -> s)
  |+ field "opts" compile_opts (fun (_, o, _) -> o)
       ~default:default_compile_opts
  |+ field "target" target (fun (_, _, t) -> t) ~default:default_target

let request =
  let open C in
  let ops =
    [
      ( "compile",
        case source_opts_target
          (function Compile r -> Some (r.source, r.opts, r.target) | _ -> None)
          (fun (source, opts, target) -> Compile { source; opts; target }) );
      ( "run",
        case
          (record (fun sot spmd native -> (sot, spmd, native))
          |+ spread source_opts_target (fun (sot, _, _) -> sot)
          |+ flag "spmd" (fun (_, spmd, _) -> spmd)
          |+ flag "native" (fun (_, _, native) -> native))
          (function
            | Run r -> Some ((r.source, r.opts, r.target), r.spmd, r.native)
            | _ -> None)
          (fun ((source, opts, target), spmd, native) ->
            Run { source; opts; target; spmd; native }) );
      ( "plan",
        case source_opts_target
          (function Plan r -> Some (r.source, r.opts, r.target) | _ -> None)
          (fun (source, opts, target) -> Plan { source; opts; target }) );
      ( "stats",
        case (record ()) (function Stats -> Some () | _ -> None) (fun () ->
            Stats) );
      ( "shutdown",
        case (record ())
          (function Shutdown -> Some () | _ -> None)
          (fun () -> Shutdown) );
    ]
  in
  (* "v" is written on every request and checked on every request:
     absence means the current version *)
  let version =
    check
      (fun v ->
        if v = protocol_version then Ok ()
        else
          Error
            (Printf.sprintf
               "protocol version %d requested, but this zapd speaks version %d"
               v protocol_version))
      int
  in
  obj
    (record (fun _ r -> r)
    |+ field "v" version (fun _ -> protocol_version) ~default:protocol_version
    |+ spread (variant "op" string ops) Fun.id)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type summary = {
  program : string;
  level : string;
  arrays_total : int;
  contracted_compiler : int;
  contracted_user : int;
  remaining : int;
  footprint_bytes : int;
  contracted : (string * string) list;
  merged_away : string list;
  fingerprint : string;
  dump_ir : string option;
  dump_plan : string option;
  dump_c : string option;
  emit_c : string option;
}

let summary =
  let open C in
  obj
    (record
       (fun program level arrays_total contracted_compiler contracted_user
            remaining footprint_bytes contracted merged_away fingerprint dump_ir
            dump_plan dump_c emit_c ->
         { program; level; arrays_total; contracted_compiler; contracted_user;
           remaining; footprint_bytes; contracted; merged_away; fingerprint;
           dump_ir; dump_plan; dump_c; emit_c })
    |+ field "program" string (fun s -> s.program)
    |+ field "level" string (fun s -> s.level)
    |+ field "arrays_total" int (fun s -> s.arrays_total)
    |+ field "contracted_compiler" int (fun s -> s.contracted_compiler)
    |+ field "contracted_user" int (fun s -> s.contracted_user)
    |+ field "remaining" int (fun s -> s.remaining)
    |+ field "footprint_bytes" int (fun s -> s.footprint_bytes)
    |+ field "contracted"
         (list
            (obj
               (record (fun x shape -> (x, shape))
               |+ field "array" string fst |+ field "shape" string snd)))
         (fun s -> s.contracted)
    |+ field "merged_away" (list string) (fun s -> s.merged_away)
    |+ field "fingerprint" string (fun s -> s.fingerprint)
    |+ opt "dump_ir" string (fun s -> s.dump_ir)
    |+ opt "dump_plan" string (fun s -> s.dump_plan)
    |+ opt "dump_c" string (fun s -> s.dump_c)
    |+ opt "emit_c" string (fun s -> s.emit_c))

type perf = {
  machine : string;
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

let perf =
  let open C in
  obj
    (record
       (fun machine procs time_ns comp_ns comm_ns flops loads stores l1_miss_pct
            l2_miss_pct messages msg_bytes checksum ->
         { machine; procs; time_ns; comp_ns; comm_ns; flops; loads; stores;
           l1_miss_pct; l2_miss_pct; messages; msg_bytes; checksum })
    |+ field "machine" string (fun p -> p.machine)
    |+ field "procs" int (fun p -> p.procs)
    |+ field "time_ns" float (fun p -> p.time_ns)
    |+ field "comp_ns" float (fun p -> p.comp_ns)
    |+ field "comm_ns" float (fun p -> p.comm_ns)
    |+ field "flops" int (fun p -> p.flops)
    |+ field "loads" int (fun p -> p.loads)
    |+ field "stores" int (fun p -> p.stores)
    |+ field "l1_miss_pct" float (fun p -> p.l1_miss_pct)
    |+ opt "l2_miss_pct" float (fun p -> p.l2_miss_pct)
    |+ field "messages" int (fun p -> p.messages)
    |+ field "msg_bytes" int (fun p -> p.msg_bytes)
    |+ field "checksum" string (fun p -> p.checksum))

(* Wall-clock is the single timing-dependent field: everything else in
   a Ran response is byte-identical between a cold and a warm serve of
   the same request, and the stats *shape* (field set and order) never
   varies with cache state. *)
type native_summary = {
  native_checksum : string;
  native_wall_ns : int64;
  native_compiler : string;  (** {!Native.Toolchain.describe} at build time *)
  native_units : int;  (** fused clusters, one C function each *)
  native_matches : bool;  (** checksum equals the modeled run's *)
}

(* wall_ns is a JSON integer: runner wall clocks are far below 2^62 ns
   (about 146 years) *)
let native_codec =
  let open C in
  obj
    (record
       (fun native_checksum native_wall_ns native_compiler native_units
            native_matches ->
         { native_checksum; native_wall_ns; native_compiler; native_units;
           native_matches })
    |+ field "checksum" string (fun n -> n.native_checksum)
    |+ field "wall_ns" (conv Int64.of_int Int64.to_int int) (fun n ->
           n.native_wall_ns)
    |+ field "compiler" string (fun n -> n.native_compiler)
    |+ field "units" int (fun n -> n.native_units)
    |+ field "matches" bool (fun n -> n.native_matches))

type cache_stats = {
  cache_capacity : int;
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
}

let cache_stats =
  let open C in
  obj
    (record
       (fun cache_capacity entries hits misses evictions insertions ->
         { cache_capacity; entries; hits; misses; evictions; insertions })
    |+ field "capacity" int (fun c -> c.cache_capacity)
    |+ field "entries" int (fun c -> c.entries)
    |+ field "hits" int (fun c -> c.hits)
    |+ field "misses" int (fun c -> c.misses)
    |+ field "evictions" int (fun c -> c.evictions)
    |+ field "insertions" int (fun c -> c.insertions))

type server_stats = {
  requests : (string * int) list;
  cache : cache_stats;
  compiles_computed : int;
  plans_computed : int;
  natives_built : int;
  natives_reused : int;
  native_runs : int;
}

(* the native counters are flat here and nested on the wire *)
let server_stats =
  let open C in
  let native =
    obj
      (record (fun b r n -> (b, r, n))
      |+ field "built" int (fun (b, _, _) -> b)
      |+ field "reused" int (fun (_, r, _) -> r)
      |+ field "runs" int (fun (_, _, n) -> n))
  in
  obj
    (record
       (fun requests cache compiles_computed plans_computed
            (natives_built, natives_reused, native_runs) ->
         { requests; cache; compiles_computed; plans_computed; natives_built;
           natives_reused; native_runs })
    |+ field "requests" (assoc int) (fun s -> s.requests)
    |+ field "cache" cache_stats (fun s -> s.cache)
    |+ field "compiles_computed" int (fun s -> s.compiles_computed)
    |+ field "plans_computed" int (fun s -> s.plans_computed)
    |+ field "native" native (fun s ->
           (s.natives_built, s.natives_reused, s.native_runs)))

type response =
  | Compiled of {
      summary : summary;
      provenance : Plan.Driver.provenance option;
    }
  | Ran of {
      summary : summary;
      provenance : Plan.Driver.provenance option;
      perf : perf;
      spmd : Spmd.report option;
      native : native_summary option;
    }
  | Planned of {
      summary : summary;
      provenance : Plan.Driver.provenance option;
    }
  | Stats_reply of server_stats
  | Shutting_down
  | Failed of Diag.t

(* the members compiled, ran and planned lead with *)
let summary_provenance =
  let open C in
  record (fun s p -> (s, p))
  |+ field "summary" summary fst
  |+ opt "provenance" Plan.Driver.provenance_codec snd

(* {"ok":false,"error":...} for a failure, else {"ok":true,"type":...} *)
let response =
  let open C in
  let one name c = record Fun.id |+ field name c Fun.id in
  let types =
    [
      ( "compiled",
        case summary_provenance
          (function Compiled r -> Some (r.summary, r.provenance) | _ -> None)
          (fun (summary, provenance) -> Compiled { summary; provenance }) );
      ( "ran",
        case
          (record (fun sp perf spmd native -> (sp, perf, spmd, native))
          |+ spread summary_provenance (fun (sp, _, _, _) -> sp)
          |+ field "perf" perf (fun (_, p, _, _) -> p)
          |+ opt "spmd" Spmd.report_codec (fun (_, _, s, _) -> s)
          |+ opt "native" native_codec (fun (_, _, _, n) -> n))
          (function
            | Ran r ->
                Some ((r.summary, r.provenance), r.perf, r.spmd, r.native)
            | _ -> None)
          (fun ((summary, provenance), perf, spmd, native) ->
            Ran { summary; provenance; perf; spmd; native }) );
      ( "planned",
        case summary_provenance
          (function Planned r -> Some (r.summary, r.provenance) | _ -> None)
          (fun (summary, provenance) -> Planned { summary; provenance }) );
      ( "stats",
        case (one "stats" server_stats)
          (function Stats_reply s -> Some s | _ -> None)
          (fun s -> Stats_reply s) );
      ( "shutting-down",
        case (record ())
          (function Shutting_down -> Some () | _ -> None)
          (fun () -> Shutting_down) );
    ]
  in
  obj
    (variant "ok" bool
       [
         ( false,
           case (one "error" Diag.codec)
             (function Failed d -> Some d | _ -> None)
             (fun d -> Failed d) );
         ( true,
           case (variant "type" string types)
             (function Failed _ -> None | r -> Some r)
             Fun.id );
       ])

let request_to_json = C.encode request
let request_of_json = C.decode request
let response_to_json = C.encode response
let response_of_json = C.decode response

let request_of_line line =
  match Json.of_string line with
  | Error e -> Error (Printf.sprintf "bad request line: %s" e)
  | Ok j -> request_of_json j

(* ------------------------------------------------------------------ *)
(* Shared validation                                                   *)
(* ------------------------------------------------------------------ *)

let machine_of_name name =
  match String.lowercase_ascii name with
  | "t3e" -> Ok Machine.t3e
  | "sp2" | "sp-2" -> Ok Machine.sp2
  | "paragon" -> Ok Machine.paragon
  | other ->
      Error
        (Diag.errorf ~phase:"cli" "unknown machine %S (t3e|sp2|paragon)" other)

let machine_of_target (t : target) =
  if t.procs < 1 then
    Error (Diag.errorf ~phase:"cli" "procs must be >= 1 (got %d)" t.procs)
  else machine_of_name t.machine

let level_of_name name =
  match Compilers.Driver.level_of_name name with
  | Some l -> Ok l
  | None ->
      Error
        (Diag.errorf ~phase:"cli"
           "unknown level %S (baseline, f1, c1, f2, f3, c2, c2+f3, c2+f4, \
            c2+p; '+' may be omitted)"
           name)
