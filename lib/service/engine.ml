module Diag = Obs.Diagnostic

let ( let* ) = Result.bind

(* A cache entry is the compiled plan plus a slot for its native
   artifact — the content-addressed runner lives literally next to the
   plan it executes.  The slot holds the artifact for [cc.code] as
   cached, i.e. {e before} any per-request [--simplify] pass:
   simplify is semantics-preserving (it changes only the dumped scalar
   code), so the runner's checksum and the simplified dump agree by
   construction and one artifact serves both spellings of the
   request. *)
type cached = {
  cc : Compilers.Driver.compiled;
  prov : Plan.Driver.provenance option;
  artifact : Native.Store.artifact option Atomic.t;
}

type t = {
  jobs : int;
  cache : cached Cache.t;
  native_store : Native.Store.t;
  (* one counter per Metrics key outside [Metrics.cache], which the
     plan cache counts itself; the table is never resized after
     [create], so domains share it without a lock *)
  counters : (string, int Atomic.t) Hashtbl.t;
  (* last values mirrored into Obs, so each sync advances counters by
     the delta only (serving domain; guarded for safety) *)
  mirror_lock : Mutex.t;
  mirrored : (string, int) Hashtbl.t;
}

let create ?capacity ?(jobs = Support.Pool.default_domains ()) ?native_root ()
    =
  let counters = Hashtbl.create 16 in
  List.iter
    (fun k ->
      if not (List.mem k Metrics.cache) then
        Hashtbl.add counters k (Atomic.make 0))
    Metrics.all;
  {
    jobs = max 1 jobs;
    cache = Cache.create ?capacity ();
    native_store = Native.Store.create ?root:native_root ();
    counters;
    mirror_lock = Mutex.create ();
    mirrored = Hashtbl.create 16;
  }

let cache_stats t = Cache.stats t.cache

let bump t key = Atomic.incr (Hashtbl.find t.counters key)

let count t key = Atomic.get (Hashtbl.find t.counters key)

let note_protocol_error t = bump t Metrics.protocol_error

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let counter_values t =
  let cs = Cache.stats t.cache in
  Metrics.
    [
      (cache_hit, cs.Cache.hits);
      (cache_miss, cs.Cache.misses);
      (cache_eviction, cs.Cache.evictions);
      (cache_insertion, cs.Cache.insertions);
    ]
  @ Hashtbl.fold (fun k a acc -> (k, Atomic.get a) :: acc) t.counters []

let sync_obs t =
  if Obs.enabled () then begin
    Mutex.protect t.mirror_lock (fun () ->
        List.iter
          (fun (key, now) ->
            let before =
              Option.value ~default:0 (Hashtbl.find_opt t.mirrored key)
            in
            if now > before then begin
              Obs.count key (now - before);
              Hashtbl.replace t.mirrored key now
            end)
          (counter_values t))
  end

let server_stats t =
  let cs = Cache.stats t.cache in
  {
    Api.requests =
      List.sort compare (List.map (fun k -> (k, count t k)) Metrics.requests);
    cache =
      {
        Api.cache_capacity = Cache.capacity t.cache;
        entries = cs.Cache.entries;
        hits = cs.Cache.hits;
        misses = cs.Cache.misses;
        evictions = cs.Cache.evictions;
        insertions = cs.Cache.insertions;
      };
    compiles_computed = count t Metrics.compile_computed;
    plans_computed = count t Metrics.plan_computed;
    natives_built = count t Metrics.native_build;
    natives_reused = count t Metrics.native_reuse;
    native_runs = count t Metrics.native_run;
  }

(* ------------------------------------------------------------------ *)
(* Source resolution                                                   *)
(* ------------------------------------------------------------------ *)

(* Zap frontend exceptions → diagnostics, exactly as zapc reports
   them (the CLI golden tests pin the rendering). *)
let catching_zap ~input f =
  match f () with
  | v -> Ok v
  | exception Zap.Elaborate.Error (line, m) ->
      Error (Diag.error ~loc:(input, line) ~phase:"elaborate" m)
  | exception Zap.Parser.Error (line, m) ->
      Error (Diag.error ~loc:(input, line) ~phase:"parse" m)
  | exception Zap.Lexer.Error (line, m) ->
      Error (Diag.error ~loc:(input, line) ~phase:"lex" m)
  | exception Sys_error m -> Error (Diag.error ~phase:"cli" m)

let read_source (opts : Api.compile_opts) = function
  | Api.Bench { name; tile } -> (
      match Suite.by_name name with
      | Some b ->
          catching_zap ~input:("--bench " ^ name) (fun () ->
              Suite.program ?tile ~config:opts.Api.config b)
      | None ->
          Error
            (Diag.errorf ~phase:"cli" "unknown benchmark %S (have: %s)" name
               (String.concat ", "
                  (List.map (fun b -> b.Suite.name) Suite.all))))
  | Api.Text { name; text } ->
      catching_zap ~input:name (fun () ->
          Zap.Elaborate.compile_string ~config:opts.Api.config text)

(* ------------------------------------------------------------------ *)
(* Compile path (the cached part)                                      *)
(* ------------------------------------------------------------------ *)

let cache_key ~fingerprint ~level ~(opts : Api.compile_opts)
    ~(target : Api.target) =
  match opts.Api.plan with
  | Api.Greedy ->
      (* the greedy ladder never consults the machine model: one entry
         serves every target *)
      Ok
        {
          Cache.fingerprint;
          mode = "greedy:" ^ Compilers.Driver.level_name level;
          machine = "-";
          procs = 0;
        }
  | Api.Ilp ->
      let* m = Api.machine_of_target target in
      Ok
        {
          Cache.fingerprint;
          mode = "ilp";
          machine = m.Machine.name;
          procs = target.Api.procs;
        }

let compute t ~level ~(opts : Api.compile_opts) ~(target : Api.target) prog =
  match opts.Api.plan with
  | Api.Greedy ->
      bump t Metrics.compile_computed;
      let* c =
        Compilers.Driver.compile_opts (Compilers.Driver.opts level) prog
      in
      Ok { cc = c; prov = None; artifact = Atomic.make None }
  | Api.Ilp ->
      bump t Metrics.compile_computed;
      bump t Metrics.plan_computed;
      let* m = Api.machine_of_target target in
      let cost =
        Plan.Cost.create
          {
            Plan.Cost.machine = m;
            procs = target.Api.procs;
            opts = Comm.Model.all_on;
          }
          prog
      in
      let search = { Plan.Search.default with Plan.Search.jobs = t.jobs } in
      let ilp = { Plan.Ilp.default with Plan.Ilp.jobs = t.jobs } in
      let* c, prov = Plan.Driver.compile_ilp ~search ~ilp ~cost prog in
      Ok { cc = c; prov = Some prov; artifact = Atomic.make None }

type lookup = {
  hit : bool;
  compiled : bool;
  planned : bool;
}

(* Only successes are cached, so a failing program re-reports its
   diagnostic on every request.  [compute] runs on the calling domain,
   so the flag says whether this very call computed. *)
let cached_compile t ~level ~(opts : Api.compile_opts) ~target prog =
  let fingerprint = Ir.Prog.fingerprint prog in
  let* key = cache_key ~fingerprint ~level ~opts ~target in
  let computed = ref false in
  let* entry, hit =
    Cache.find_or_compute t.cache key (fun () ->
        computed := true;
        compute t ~level ~opts ~target prog)
  in
  let planned = !computed && opts.Api.plan <> Api.Greedy in
  Ok (fingerprint, entry, { hit; compiled = !computed; planned })

(* Direct (in-process) entry for callers that already hold an
   elaborated program — the lazy frontend flushes through here.  Same
   cache, same key discipline, same counters as a Compile request;
   skips only the source elaboration and response rendering. *)
let compile_ir t ~(opts : Api.compile_opts) ~target prog =
  let r =
    let* level = Api.level_of_name opts.Api.level in
    let* fingerprint, entry, lookup =
      cached_compile t ~level ~opts ~target prog
    in
    Ok (fingerprint, entry.cc, entry.prov, lookup)
  in
  sync_obs t;
  r

(* ------------------------------------------------------------------ *)
(* Rendering helpers (server side, so remote replies carry the exact
   bytes zapc prints)                                                  *)
(* ------------------------------------------------------------------ *)

let render_fmt f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let render_plan (c : Compilers.Driver.compiled) =
  render_fmt (fun ppf ->
      List.iteri
        (fun i (bp : Sir.Scalarize.block_plan) ->
          Format.fprintf ppf "--- block %d ---@." i;
          Format.fprintf ppf "%a@." Core.Partition.pp bp.Sir.Scalarize.partition;
          List.iter
            (fun (x, shape) ->
              Format.fprintf ppf "contract %s -> %s@." x
                (Core.Contraction.shape_name shape))
            bp.Sir.Scalarize.contracted;
          List.iter
            (fun (ri, rep) ->
              Format.fprintf ppf "reduction %d fused into cluster P%d@." ri rep)
            bp.Sir.Scalarize.absorbed)
        c.Compilers.Driver.plan)

let summary_of ~fingerprint ~merged_away ~(opts : Api.compile_opts) prog
    (c : Compilers.Driver.compiled) =
  let nc, nu = Compilers.Driver.contracted_counts c in
  let c_text =
    if opts.Api.dump_c || opts.Api.emit_c then
      Some (Sir.Emit_c.to_string c.Compilers.Driver.code)
    else None
  in
  {
    Api.program = prog.Ir.Prog.name;
    level = Compilers.Driver.level_name c.Compilers.Driver.level;
    arrays_total = List.length prog.Ir.Prog.arrays;
    contracted_compiler = nc;
    contracted_user = nu;
    remaining = Compilers.Driver.remaining_arrays c;
    footprint_bytes = Exec.Interp.footprint_bytes c.Compilers.Driver.code;
    contracted =
      List.map
        (fun (x, shape) -> (x, Core.Contraction.shape_name shape))
        c.Compilers.Driver.contracted;
    merged_away;
    fingerprint;
    dump_ir =
      (if opts.Api.dump_ir then
         Some (render_fmt (fun ppf -> Format.fprintf ppf "%a@." Ir.Prog.pp prog))
       else None);
    dump_plan = (if opts.Api.dump_plan then Some (render_plan c) else None);
    dump_c = (if opts.Api.dump_c then c_text else None);
    emit_c = (if opts.Api.emit_c then c_text else None);
  }

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

(* Elaborate + (merge) + cached compile + per-request finish work —
   the shared body of Compile/Run/Plan. *)
let compiled_of t ~(opts : Api.compile_opts) ~target source =
  let* prog = read_source opts source in
  let prog, merged_away =
    if opts.Api.merge then Core.Merge.run prog else (prog, [])
  in
  let* level = Api.level_of_name opts.Api.level in
  let* fingerprint, entry, _ = cached_compile t ~level ~opts ~target prog in
  let c = entry.cc in
  let c =
    if opts.Api.simplify then
      Obs.span "simplify" (fun () ->
          {
            c with
            Compilers.Driver.code = Sir.Simplify.program c.Compilers.Driver.code;
          })
    else c
  in
  Ok (summary_of ~fingerprint ~merged_away ~opts prog c, c, entry)

let perf_of ~(m : Machine.t) ~procs (c : Compilers.Driver.compiled) =
  let cfg = { Comm.Perf.machine = m; procs; comm = Comm.Model.all_on } in
  let r = Comm.Perf.measure cfg c in
  {
    Api.machine = m.Machine.name;
    procs;
    time_ns = r.Comm.Perf.time_ns;
    comp_ns = r.Comm.Perf.comp_ns;
    comm_ns = r.Comm.Perf.comm_ns;
    flops = r.Comm.Perf.flops;
    loads = r.Comm.Perf.loads;
    stores = r.Comm.Perf.stores;
    l1_miss_pct = 100.0 *. Cachesim.Cache.miss_rate r.Comm.Perf.l1;
    l2_miss_pct =
      Option.map
        (fun l2 -> 100.0 *. Cachesim.Cache.miss_rate l2)
        r.Comm.Perf.l2;
    messages = r.Comm.Perf.messages;
    msg_bytes = r.Comm.Perf.msg_bytes;
    checksum = r.Comm.Perf.checksum;
  }

let spmd_of ~(m : Machine.t) ~procs (c : Compilers.Driver.compiled) =
  match
    Spmd.execute
      { Spmd.machine = m; procs; opts = Comm.Model.all_on; cachesim = true }
      c
  with
  | r -> Ok r.Spmd.report
  | exception Spmd.Unsupported msg ->
      Error (Diag.errorf ~phase:"spmd" "unsupported: %s" msg)
  | exception Spmd.Runtime_error msg -> Error (Diag.error ~phase:"spmd" msg)

(* ------------------------------------------------------------------ *)
(* Native execution                                                    *)
(* ------------------------------------------------------------------ *)

(* The artifact for a cache entry: the entry's own slot (a plain
   atomic read) when warm, else the content-addressed store, which
   shares one build among concurrent requests for the same C and may
   still answer without compiling, from its memo or from an artifact
   a previous process left on disk. *)
let native_artifact t (entry : cached) =
  match Atomic.get entry.artifact with
  | Some a ->
      bump t Metrics.native_reuse;
      Ok a
  | None -> (
      match Native.Store.get t.native_store entry.cc.Compilers.Driver.code with
      | Ok (a, fresh) ->
          Atomic.set entry.artifact (Some a);
          if fresh then begin
            bump t Metrics.native_build;
            Native.Toolchain.note_obs ()
          end
          else bump t Metrics.native_reuse;
          Ok a
      | Error e ->
          Error (Diag.error ~phase:"native" (Native.Build.error_to_string e)))

let native_of t ~(perf : Api.perf) entry =
  let* a = native_artifact t entry in
  bump t Metrics.native_run;
  match Native.Build.run_exe a.Native.Store.runner with
  | Ok r ->
      Ok
        {
          Api.native_checksum = r.Native.Build.checksum;
          native_wall_ns = r.Native.Build.wall_ns;
          native_compiler = a.Native.Store.compiler;
          native_units = a.Native.Store.units;
          native_matches =
            String.equal r.Native.Build.checksum perf.Api.checksum;
        }
  | Error e ->
      Error (Diag.error ~phase:"native" (Native.Build.error_to_string e))

let of_result = function Ok r -> r | Error d -> Api.Failed d

let exec t req =
  match req with
  | Api.Compile { source; opts; target } ->
      bump t Metrics.request_compile;
      of_result
        (let* summary, _, entry = compiled_of t ~opts ~target source in
         Ok (Api.Compiled { summary; provenance = entry.prov }))
  | Api.Plan { source; opts; target } ->
      bump t Metrics.request_plan;
      (* a Plan response always carries the rendered plan *)
      let opts = { opts with Api.dump_plan = true } in
      of_result
        (let* summary, _, entry = compiled_of t ~opts ~target source in
         Ok (Api.Planned { summary; provenance = entry.prov }))
  | Api.Run { source; opts; target; spmd; native } ->
      bump t Metrics.request_run;
      of_result
        (let* summary, c, entry = compiled_of t ~opts ~target source in
         let* m = Api.machine_of_target target in
         let perf = perf_of ~m ~procs:target.Api.procs c in
         let* spmd =
           if spmd then
             Result.map Option.some (spmd_of ~m ~procs:target.Api.procs c)
           else Ok None
         in
         let* native =
           if native then
             Result.map Option.some (native_of t ~perf entry)
           else Ok None
         in
         Ok
           (Api.Ran
              { summary; provenance = entry.prov; perf; spmd; native }))
  | Api.Stats ->
      bump t Metrics.request_stats;
      Api.Stats_reply (server_stats t)
  | Api.Shutdown ->
      bump t Metrics.request_shutdown;
      Api.Shutting_down

let handle t req =
  let resp = exec t req in
  sync_obs t;
  resp
