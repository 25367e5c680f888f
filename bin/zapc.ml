(* zapc — the zap array-language compiler driver.

   Since the zapd service landed, zapc is a thin client of the typed
   request API (Service.Api): the command line builds one
   [Api.request], hands it either to an in-process [Service.Engine]
   (the default) or to a running zapd daemon over a Unix-domain socket
   (--connect), and renders the [Api.response].  Both paths produce
   byte-identical output because both go through the same engine code
   and the same renderer — the CLI owns no compilation logic of its
   own anymore.

   All failures flow through [Obs.Diagnostic.t] and are rendered
   uniformly by cmdliner; --trace streams the pass-span tree and
   optimizer events as they happen, and --stats json:FILE dumps a
   machine-readable compile report (see docs/observability.md). *)

open Cmdliner
module Diag = Obs.Diagnostic
module Api = Service.Api

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Argument parsing                                                    *)
(* ------------------------------------------------------------------ *)

let parse_config kvs =
  List.fold_left
    (fun acc kv ->
      let* acc = acc in
      match String.index_opt kv '=' with
      | Some i -> (
          let k = String.sub kv 0 i in
          let v = String.sub kv (i + 1) (String.length kv - i - 1) in
          match float_of_string_opt v with
          | Some f -> Ok ((k, f) :: acc)
          | None ->
              Error
                (Diag.errorf ~phase:"cli"
                   "bad --config %S (value %S is not a number)" kv v))
      | None ->
          Error (Diag.errorf ~phase:"cli" "bad --config %S (want name=value)" kv))
    (Ok []) kvs
  |> Result.map List.rev

let parse_plan name =
  match List.assoc_opt name Api.plan_modes with
  | Some m -> Ok m
  | None ->
      Error
        (Diag.errorf ~phase:"cli" "unknown --plan %S (%s)" name
           (String.concat "|" (List.map fst Api.plan_modes)))

(* --stats SPEC: "json:FILE", "text:FILE", or the bare format name
   (destination defaults to stdout, spelled "-"). *)
let parse_stats = function
  | None -> Ok None
  | Some spec ->
      let fmt, dest =
        match String.index_opt spec ':' with
        | Some i ->
            ( String.sub spec 0 i,
              String.sub spec (i + 1) (String.length spec - i - 1) )
        | None -> (spec, "-")
      in
      if fmt = "json" || fmt = "text" then Ok (Some (fmt, dest))
      else
        Error
          (Diag.errorf ~phase:"cli"
             "bad --stats %S (want json:FILE or text:FILE, FILE '-' for stdout)"
             spec)

(* The request's source: a named benchmark, or the file's text (read
   here so the daemon never touches the client's filesystem). *)
let read_source bench file config tile =
  match (bench, file) with
  | Some name, None -> (Ok (Api.Bench { name; tile }), config)
  | None, Some path ->
      let config =
        match tile with Some t -> ("n", float_of_int t) :: config | None -> config
      in
      ( (match In_channel.with_open_bin path In_channel.input_all with
        | text -> Ok (Api.Text { name = path; text })
        | exception Sys_error m -> Error (Diag.error ~phase:"cli" m)),
        config )
  | Some _, Some _ ->
      (Error (Diag.error ~phase:"cli" "give either a file or --bench, not both"),
       config)
  | None, None ->
      ( Error
          (Diag.error ~phase:"cli"
             "nothing to compile: give a file or --bench NAME"),
        config )

(* ------------------------------------------------------------------ *)
(* Dispatch: in-process engine, or a zapd daemon via --connect         *)
(* ------------------------------------------------------------------ *)

let dispatch ~connect ~jobs req =
  match connect with
  | Some socket -> Service.Client.roundtrip ~socket req
  | None -> Ok (Service.Engine.handle (Service.Engine.create ~jobs ()) req)

(* ------------------------------------------------------------------ *)
(* Response rendering                                                  *)
(* ------------------------------------------------------------------ *)

let stats_json ?spmd ?native ?plan (s : Api.summary) report =
  let open Obs.Json in
  let base =
    [
      ("schema", String "zapc/compile-report/1");
      ("program", String s.Api.program);
      ("level", String s.Api.level);
      ( "arrays",
        Obj
          [
            ("total", Int s.Api.arrays_total);
            ("contracted_compiler", Int s.Api.contracted_compiler);
            ("contracted_user", Int s.Api.contracted_user);
            ("remaining", Int s.Api.remaining);
          ] );
      ( "contracted",
        List
          (List.map
             (fun (x, shape) ->
               Obj [ ("array", String x); ("shape", String shape) ])
             s.Api.contracted) );
      ("footprint_bytes", Int s.Api.footprint_bytes);
    ]
  in
  let base =
    match spmd with
    | Some r -> base @ [ ("spmd", Obs.Codec.encode Spmd.report_codec r) ]
    | None -> base
  in
  let base =
    match native with
    | Some n -> base @ [ ("native", Obs.Codec.encode Api.native_codec n) ]
    | None -> base
  in
  let base =
    match plan with
    | Some p ->
        base @ [ ("plan", Obs.Codec.encode Plan.Driver.provenance_codec p) ]
    | None -> base
  in
  match Obs.Codec.encode Obs.report_codec report with
  | Obj fields -> Obj (base @ fields)
  | other -> Obj (base @ [ ("report", other) ])

let write_stats ?spmd ?native ?plan (fmt, dest) summary report =
  let text =
    match fmt with
    | "json" ->
        Obs.Json.to_string (stats_json ?spmd ?native ?plan summary report) ^ "\n"
    | _ -> Format.asprintf "%a" Obs.pp_report report
  in
  if dest = "-" then begin
    print_string text;
    Ok ()
  end
  else
    match open_out dest with
    | oc ->
        output_string oc text;
        close_out oc;
        Ok ()
    | exception Sys_error m -> Error (Diag.error ~phase:"cli" m)

let print_perf ~quiet (p : Api.perf) =
  if not quiet then
    Printf.printf
      "run on %s x%d: time %.3f ms (comp %.3f, comm %.3f)\n\
      \  flops %d  loads %d  stores %d  L1 miss %.2f%%%s\n\
      \  messages %d (%d bytes)  checksum %s\n"
      p.Api.machine p.Api.procs
      (p.Api.time_ns /. 1e6)
      (p.Api.comp_ns /. 1e6)
      (p.Api.comm_ns /. 1e6)
      p.Api.flops p.Api.loads p.Api.stores p.Api.l1_miss_pct
      (match p.Api.l2_miss_pct with
      | Some pct -> Printf.sprintf "  L2 miss %.2f%%" pct
      | None -> "")
      p.Api.messages p.Api.msg_bytes p.Api.checksum

let print_spmd ~quiet (p : Api.perf) (s : Spmd.report) =
  if not quiet then
    Printf.printf
      "spmd on %s x%d: time %.3f ms over %d supersteps (%s)\n\
      \  charged %d messages (%d bytes)  wire %d messages (%d bytes)\n\
      \  ghost fills %d  unmodeled %d  reduction messages %d%s\n\
      \  checksum %s\n"
      p.Api.machine p.Api.procs
      (s.Spmd.time_ns /. 1e6)
      s.Spmd.supersteps
      (if
         String.equal s.Spmd.checksum p.Api.checksum
         && s.Spmd.charged_messages = p.Api.messages
         && s.Spmd.charged_bytes = p.Api.msg_bytes
       then "matches model"
       else "DIVERGES from model")
      s.Spmd.charged_messages s.Spmd.charged_bytes s.Spmd.wire_messages
      s.Spmd.wire_bytes s.Spmd.ghost_fills s.Spmd.unmodeled_exchanges
      s.Spmd.reduction_messages
      (match s.Spmd.l1 with
      | Some l1 ->
          Printf.sprintf "  L1 miss %.2f%%" (100.0 *. Cachesim.Cache.miss_rate l1)
      | None -> "")
      s.Spmd.checksum

let print_native ~quiet (n : Api.native_summary) =
  if not quiet then
    Printf.printf
      "native: wall %.3f ms over %d clusters (%s)\n\
      \  compiler %s\n\
      \  checksum %s\n"
      (Int64.to_float n.Api.native_wall_ns /. 1e6)
      n.Api.native_units
      (if n.Api.native_matches then "matches model" else "DIVERGES from model")
      n.Api.native_compiler n.Api.native_checksum

let render ~quiet ~emit_c_path ~stats ~recorder (s : Api.summary) provenance
    perf_spmd =
  if s.Api.merged_away <> [] && not quiet then
    Printf.printf "statement merge eliminated: %s\n"
      (String.concat ", " s.Api.merged_away);
  Option.iter print_string s.Api.dump_ir;
  Option.iter print_string s.Api.dump_plan;
  Option.iter print_string s.Api.dump_c;
  let* () =
    match (emit_c_path, s.Api.emit_c) with
    | Some path, Some text -> (
        match open_out path with
        | oc ->
            output_string oc text;
            close_out oc;
            if not quiet then begin
              let exe =
                match Filename.extension path with
                | "" -> path ^ ".out"
                | _ -> Filename.remove_extension path
              in
              Printf.printf "wrote %s (compile with: %s)\n" path
                (Native.Proc.render_argv
                   (Native.Toolchain.cc_argv () @ [ "-o"; exe; path; "-lm" ]))
            end;
            Ok ()
        | exception Sys_error m -> Error (Diag.error ~phase:"cli" m))
    | _ -> Ok ()
  in
  if not quiet then begin
    Printf.printf
      "%s @ %s: %d statements-of-arrays, contracted %d (%d compiler / %d \
       user), %d allocations remain, %d bytes\n"
      s.Api.program s.Api.level s.Api.arrays_total
      (s.Api.contracted_compiler + s.Api.contracted_user)
      s.Api.contracted_compiler s.Api.contracted_user s.Api.remaining
      s.Api.footprint_bytes;
    match provenance with
    | Some p ->
        Printf.printf
          "plan %s on %s x%d: greedy %.3f ms, search %.3f ms, ilp %.3f ms%s%s\n"
          p.Plan.Driver.strategy p.Plan.Driver.machine p.Plan.Driver.procs
          (p.Plan.Driver.greedy_total_ns /. 1e6)
          (p.Plan.Driver.search_total_ns /. 1e6)
          (p.Plan.Driver.ilp_total_ns /. 1e6)
          (if p.Plan.Driver.proved_optimal then " (proved optimal)" else "")
          (if p.Plan.Driver.fallback then
             Printf.sprintf " (kept %s)" p.Plan.Driver.strategy
           else "")
    | None -> ()
  end;
  let spmd_report, native_summary =
    match perf_spmd with
    | Some (perf, spmd, native) ->
        print_perf ~quiet perf;
        Option.iter (fun sp -> print_spmd ~quiet perf sp) spmd;
        Option.iter (fun n -> print_native ~quiet n) native;
        (spmd, native)
    | None -> (None, None)
  in
  match (recorder, stats) with
  | Some r, Some spec ->
      write_stats ?spmd:spmd_report ?native:native_summary ?plan:provenance
        spec s (Obs.report r)
  | _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* Daemon requests (--server-stats, --shutdown)                        *)
(* ------------------------------------------------------------------ *)

let daemon_request ~connect req =
  match connect with
  | None ->
      Error
        (Diag.error ~phase:"cli"
           "this request needs a daemon: give --connect SOCKET")
  | Some socket -> (
      let* resp = Service.Client.roundtrip ~socket req in
      match resp with
      | Api.Failed d -> Error d
      | resp ->
          print_endline (Obs.Json.to_string (Api.response_to_json resp));
          Ok ())

(* ------------------------------------------------------------------ *)
(* Differential fuzzing (--fuzz)                                       *)
(* ------------------------------------------------------------------ *)

(* Generate N random programs from --seed and push each through every
   executor (see Fuzz.Oracle).  The campaign fans out over --jobs
   domains (Fuzz.Campaign), then divergences are printed, shrunk and
   written to --fuzz-out sequentially in case order — so the output is
   byte-identical at every --jobs value.  Any failure makes the run
   exit nonzero. *)
let run_fuzz ~n ~seed ~jobs ~out ~machine ~trace_mode =
  let* machine = Api.machine_of_name machine in
  let cfg = { Fuzz.Oracle.default with Fuzz.Oracle.machine } in
  let* () =
    if Sys.file_exists out then
      if Sys.is_directory out then Ok ()
      else Error (Diag.errorf ~phase:"fuzz" "--fuzz-out %s is not a directory" out)
    else
      match Sys.mkdir out 0o755 with
      | () -> Ok ()
      | exception Sys_error m -> Error (Diag.error ~phase:"fuzz" m)
  in
  let cases =
    Fuzz.Campaign.run ~cfg ~trace:trace_mode ~jobs ~n ~seed:(Int64.of_int seed)
      ()
  in
  let skipped = Fuzz.Campaign.skipped_runs cases in
  let divergent = Fuzz.Campaign.divergent cases in
  let failures = List.length divergent in
  List.iter
    (fun (c : Fuzz.Campaign.case) ->
      Printf.printf "case %d/%d (seed %d) DIVERGED:\n%s\n" c.Fuzz.Campaign.index
        n seed
        (Fuzz.Oracle.to_string c.Fuzz.Campaign.report);
      let fcfg = Fuzz.Oracle.focus c.Fuzz.Campaign.report cfg in
      let still_fails q = not (Fuzz.Oracle.ok (Fuzz.Oracle.run ~cfg:fcfg q)) in
      let small = Fuzz.Shrink.run ~check:still_fails c.Fuzz.Campaign.program in
      let final = Fuzz.Oracle.run ~cfg small in
      let backends =
        String.concat ", " (List.map fst (Fuzz.Oracle.divergences final))
      in
      (* the repro filename carries the shrunk program's content
         address, so re-shrinks of the same underlying bug land on the
         same file and distinct bugs from one case never collide *)
      let path =
        Filename.concat out
          (Printf.sprintf "fuzz-seed%d-case%d-%s.zir" seed
             c.Fuzz.Campaign.index
             (Ir.Prog.fingerprint small))
      in
      let comment =
        Printf.sprintf "zapc --fuzz%s: seed %d case %d\ndiverging: %s"
          (if trace_mode then " --trace-mode" else "")
          seed c.Fuzz.Campaign.index backends
      in
      Fuzz.Repro.save ~path ~comment small;
      Printf.printf "shrunk repro written to %s (diverging: %s)\n%s\n" path
        backends
        (Fuzz.Oracle.to_string final))
    divergent;
  Printf.printf "fuzz: %d cases, seed %d: %d divergence%s%s\n" n seed failures
    (if failures = 1 then "" else "s")
    (if skipped > 0 then
       Printf.sprintf " (%d backend runs skipped)" skipped
     else "");
  if failures = 0 then Ok ()
  else
    Error
      (Diag.errorf ~phase:"fuzz" "%d of %d cases diverged (repros in %s)"
         failures n out)

(* ------------------------------------------------------------------ *)
(* Runtime-fusion demo (--lazy-demo)                                   *)
(* ------------------------------------------------------------------ *)

(* A streaming loop through the lazy frontend: each iteration records
   a fresh 3-point-stencil-plus-reduction trace whose constants depend
   on the iteration number, then forces the scalar.  Every iteration
   has the same trace *shape*, so iteration 1 compiles (and plans) and
   every later iteration reuses the cached plan — the per-iteration
   cache columns printed below are the point of the demo. *)
let run_lazy_demo ~level ~iters =
  let* level = Api.level_of_name level in
  let module T = Lazyarr.Trace in
  let ctx = T.create ~name:"demo" ~level () in
  let r = Ir.Region.of_bounds [ (0, 1023) ] in
  Printf.printf
    "lazy demo: %d iterations of a 1-D stencil + reduction trace (level %s)\n\
     %-6s %-14s %-18s %s\n"
    iters
    (Compilers.Driver.level_name level)
    "iter" "sum" "checksum" "cache (hits/misses)";
  for t = 1 to iters do
    let ft = float_of_int t in
    let src =
      T.gen ctx r
        Ir.Expr.(Binop (Add, Binop (Mul, Const ft, Idx 1), Const 1.0))
    in
    let left = T.shift [| -1 |] src in
    let right = T.shift [| 1 |] src in
    let s = T.zip_with (fun a b -> Ir.Expr.Binop (Ir.Expr.Add, a, b)) left right in
    let sm =
      T.map
        (fun x -> Ir.Expr.Binop (Ir.Expr.Mul, Ir.Expr.Const (0.5 /. ft), x))
        s
    in
    let sum = T.reduce Ir.Prog.Rsum sm in
    let v = T.force_scalar sum in
    let st = T.stats ctx in
    Printf.printf "%-6d %-14.8g %-18s %d/%d\n" t v (T.scalar_checksum sum)
      st.T.cache_hits st.T.cache_misses
  done;
  let st = T.stats ctx in
  Printf.printf
    "flushes=%d ops recorded=%d lowered=%d elided=%d forwarded=%d \
     params lifted=%d\n\
     plan cache: %d hits, %d misses; %d compiles computed, %d plans computed\n\
     trace-shape fingerprint: %s\n"
    st.T.flushes st.T.ops_recorded st.T.ops_lowered st.T.ops_elided
    st.T.ops_forwarded st.T.params_lifted st.T.cache_hits st.T.cache_misses
    st.T.compiles_computed st.T.plans_computed
    (Option.value ~default:"-" st.T.last_fingerprint);
  if st.T.cache_misses > 1 then
    Error
      (Diag.errorf ~phase:"lazy"
         "expected one cold compile, saw %d cache misses" st.T.cache_misses)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* --list-levels: the full ladder zapc accepts, paper spelling then
   the internal (plus-free) one, one level per line. *)
let list_levels () =
  List.iter
    (fun l ->
      let paper = Compilers.Driver.level_name l in
      let internal = String.concat "" (String.split_on_char '+' paper) in
      Printf.printf "%s %s\n" paper internal)
    (Compilers.Driver.all_levels @ [ Compilers.Driver.C2P ])

let main bench file level config tile merge simplify dump_ir dump_plan_f
    dump_c emit_c run machine procs spmd native trace stats plan list_levels_f
    fuzz seed fuzz_out trace_mode lazy_demo jobs connect server_stats shutdown =
  let result =
    if list_levels_f then Ok (list_levels ())
    else if shutdown then daemon_request ~connect Api.Shutdown
    else if server_stats then daemon_request ~connect Api.Stats
    else if lazy_demo then run_lazy_demo ~level ~iters:8
    else
    match fuzz with
    | Some n -> run_fuzz ~n ~seed ~jobs ~out:fuzz_out ~machine ~trace_mode
    | None ->
    let* stats = parse_stats stats in
    let recorder =
      if trace || stats <> None then
        let sink =
          if trace then Some (Obs.text_sink Format.err_formatter) else None
        in
        Some (Obs.create ?sink ())
      else None
    in
    let in_scope f =
      match recorder with Some r -> Obs.run r f | None -> f ()
    in
    in_scope @@ fun () ->
    (* stdout carries exactly the JSON report when it is the stats
       destination: keep the human summary out of the stream *)
    let quiet = stats = Some ("json", "-") in
    let* config = parse_config config in
    let source, config = read_source bench file config tile in
    let* source = source in
    let* plan_mode = parse_plan plan in
    let opts =
      {
        Api.level;
        plan = plan_mode;
        config;
        merge;
        simplify;
        dump_ir;
        dump_plan = dump_plan_f;
        dump_c;
        emit_c = emit_c <> None;
      }
    in
    let target = { Api.machine; procs } in
    let* () =
      if native && not run then
        Error (Diag.error ~phase:"cli" "--native needs --run")
      else Ok ()
    in
    let req =
      if run then Api.Run { source; opts; target; spmd; native }
      else Api.Compile { source; opts; target }
    in
    let* resp = dispatch ~connect ~jobs req in
    match resp with
    | Api.Failed d -> Error d
    | Api.Compiled { summary; provenance } ->
        render ~quiet ~emit_c_path:emit_c ~stats ~recorder summary provenance
          None
    | Api.Ran { summary; provenance; perf; spmd; native } ->
        render ~quiet ~emit_c_path:emit_c ~stats ~recorder summary provenance
          (Some (perf, spmd, native))
    | Api.Planned { summary; provenance } ->
        render ~quiet ~emit_c_path:emit_c ~stats ~recorder summary provenance
          None
    | Api.Stats_reply _ | Api.Shutting_down ->
        Error (Diag.error ~phase:"protocol" "unexpected response type")
  in
  Result.map_error (fun d -> `Msg (Diag.to_string d)) result

let bench_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench" ] ~docv:"NAME" ~doc:"Compile a built-in benchmark.")

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.zap")

let level_arg =
  Arg.(
    value & opt string "c2+f3"
    & info [ "level"; "O" ] ~docv:"LEVEL"
        ~doc:
          "Optimization level: baseline, f1, c1, f2, f3, c2, c2+f3, \
           c2+f4, or c2+p (the '+' may be omitted: c2f3).")

let config_arg =
  Arg.(
    value & opt_all string []
    & info [ "config"; "c" ] ~docv:"NAME=VALUE"
        ~doc:"Override a config constant (repeatable).")

let tile_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tile" ] ~docv:"N" ~doc:"Override the tile-edge config constant.")

let merge_arg =
  Arg.(
    value & flag
    & info [ "merge" ]
        ~doc:
          "Run statement merge (array operation synthesis) before the            optimizer.")

let simplify_arg =
  Arg.(
    value & flag
    & info [ "simplify" ]
        ~doc:
          "Run the model scalar back end (constant folding + CSE) on the            generated code.")

let dump_ir_arg =
  Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the array-level IR.")

let dump_plan_arg =
  Arg.(
    value & flag
    & info [ "dump-plan" ]
        ~doc:"Print the fusion partition and contraction decisions.")

let dump_c_arg =
  Arg.(
    value & flag
    & info [ "dump-c" ]
        ~doc:"Print the generated C translation unit (the text $(b,--emit-c) writes).")

let emit_c_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-c" ] ~docv:"FILE.c"
        ~doc:
          "Write the generated C translation unit to $(docv) and print the \
           command that compiles it.  The program prints the live-out \
           digest $(b,--run) reports and the nanoseconds its clusters took.")

let run_arg =
  Arg.(
    value & flag
    & info [ "run" ] ~doc:"Execute and report modeled performance.")

let machine_arg =
  Arg.(
    value & opt string "t3e"
    & info [ "machine"; "m" ] ~docv:"MACHINE" ~doc:"t3e, sp2 or paragon.")

let procs_arg =
  Arg.(value & opt int 1 & info [ "procs"; "p" ] ~docv:"P" ~doc:"Processors.")

let spmd_arg =
  Arg.(
    value & flag
    & info [ "spmd" ]
        ~doc:
          "With $(b,--run): also execute the program on a simulated \
           processor grid (each processor runs its share of every \
           statement through the interpreter, with explicit border \
           exchanges) and report the executed counters next to the \
           modeled ones.")

let native_arg =
  Arg.(
    value & flag
    & info [ "native" ]
        ~doc:
          "With $(b,--run): also compile the plan's emitted C to a native \
           runner (content-addressed artifact cache; a warm plan re-runs \
           with zero $(b,cc) invocations) and execute it, reporting real \
           wall-clock and the live-out checksum next to the modeled run.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Stream the pass-span tree (with wall-clock timings) and \
           optimizer events to stderr as compilation proceeds.")

let stats_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats" ] ~docv:"FMT:FILE"
        ~doc:
          "Write a compile report: $(b,json:FILE) for the machine-readable \
           schema (per-pass timings, fusion/contraction counters with \
           rejected-merge reasons), $(b,text:FILE) for a human-readable \
           summary.  FILE $(b,-) writes to stdout (and, for json, \
           suppresses the usual summary line).")

let plan_arg =
  Arg.(
    value & opt string "greedy"
    & info [ "plan" ] ~docv:"STRATEGY"
        ~doc:
          "Fusion planning strategy: $(b,greedy) (the paper's level \
           ladder, default) or $(b,ilp) (against the unified cost model \
           for $(b,--machine)/$(b,--procs): a beam search over fusion \
           partitions, then a 0/1 integer program over valid clusters \
           seeded with its result and solved by branch-and-cut; never \
           worse than greedy under the model, and provably optimal when \
           the certificate closes — see docs/planner.md; provenance \
           lands in $(b,--stats json)).")

let list_levels_arg =
  Arg.(
    value & flag
    & info [ "list-levels" ]
        ~doc:
          "Print the optimization-level ladder (paper spelling, then the \
           internal plus-free spelling, one level per line) and exit.")

let fuzz_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuzz" ] ~docv:"N"
        ~doc:
          "Differential fuzzing: generate $(docv) random programs from \
           $(b,--seed) and run each through the reference interpreter, \
           every optimization level, the ILP planning pipeline, the SPMD \
           engine and (when $(b,cc) is installed) the emitted C, comparing \
           result digests.  Diverging cases are shrunk and written to \
           $(b,--fuzz-out) as self-contained repros; exits nonzero if any \
           case diverges.")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"S"
        ~doc:"PRNG seed for $(b,--fuzz); same seed, same programs.")

let fuzz_out_arg =
  Arg.(
    value & opt string "."
    & info [ "fuzz-out" ] ~docv:"DIR"
        ~doc:"Directory for shrunk $(b,--fuzz) repros (created if missing).")

let trace_mode_arg =
  Arg.(
    value & flag
    & info [ "trace-mode" ]
        ~doc:
          "With $(b,--fuzz): draw each case from a random lazy-combinator \
           trace (gen/map/zip/shift/reduce through the runtime-fusion \
           frontend) lowered to a program, instead of from the whole-program \
           generator.  Same oracle, same shrinker, same determinism \
           contract.")

let lazy_demo_arg =
  Arg.(
    value & flag
    & info [ "lazy-demo" ]
        ~doc:
          "Run the runtime-fusion demo: a streaming loop that records the \
           same stencil-plus-reduction trace shape with fresh constants \
           each iteration and forces it through the lazy frontend — \
           iteration 1 compiles, every later iteration reuses the cached \
           plan.  Honors $(b,--level); exits nonzero if any warm iteration \
           misses the plan cache.")

let jobs_arg =
  Arg.(
    value
    & opt int (Support.Pool.default_domains ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for $(b,--fuzz) campaigns, and for \
           $(b,--plan ilp)'s state and column pricing when $(b,--procs) \
           is above 1 (at one processor the planners price on one \
           domain, which is faster there; default: the machine's \
           recommended domain count).  Results are deterministic: output \
           is byte-identical at every $(docv), only the wall-clock \
           changes.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:
          "Send the request to a running $(b,zapd) daemon on this \
           Unix-domain socket instead of compiling in-process.  Output is \
           byte-identical either way; the daemon's plan cache makes \
           repeated compiles (notably $(b,--plan ilp)) fast.")

let server_stats_arg =
  Arg.(
    value & flag
    & info [ "server-stats" ]
        ~doc:
          "Print the daemon's request and plan-cache counters as one JSON \
           line (requires $(b,--connect)).")

let shutdown_arg =
  Arg.(
    value & flag
    & info [ "shutdown" ]
        ~doc:"Ask the daemon to exit cleanly (requires $(b,--connect)).")

let cmd =
  let doc =
    "array-level fusion and contraction compiler (PLDI'98 reproduction)"
  in
  Cmd.v
    (Cmd.info "zapc" ~version:"1.0" ~doc)
    Term.(
      term_result ~usage:false
        (const main $ bench_arg $ file_arg $ level_arg $ config_arg
       $ tile_arg $ merge_arg $ simplify_arg $ dump_ir_arg $ dump_plan_arg
       $ dump_c_arg $ emit_c_arg $ run_arg $ machine_arg $ procs_arg
       $ spmd_arg $ native_arg $ trace_arg $ stats_arg $ plan_arg $ list_levels_arg
       $ fuzz_arg $ seed_arg $ fuzz_out_arg $ trace_mode_arg $ lazy_demo_arg
       $ jobs_arg $ connect_arg $ server_stats_arg $ shutdown_arg))

let () = exit (Cmd.eval cmd)
