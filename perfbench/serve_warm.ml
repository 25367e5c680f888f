(* The zapd path, broken down by layer in every traced run.

   A zapd child process serves a private socket and native root.  Set-up
   starts it and sends every request of the rotation once, so the plan
   cache and the native artifacts are built before anything is timed.
   Then [clients] clients (the core count of the 2-core host this load
   was sized on) run a closed loop over the rotation: each sends its next
   request only when the previous reply has arrived, so the daemon's
   serial accept queues one client behind the other.  The rotation is
   one Run{greedy c2+f3, native} and one Compile{greedy c2+f3, emit_c}
   per suite benchmark at its default tile; the seed fixes its order.
   Every reply is checked outside the timed interval: a Run's
   interpreter checksum and native checksum against Exec.Refinterp, a
   Compile's fingerprint, and every warm reply against the cold reply to
   the same request.  After the loop the rotation is replayed in-process
   against an engine warmed the same way, timing Engine.handle and then
   each stage of the handler through the layers' public functions.

   This path is not an end-to-end workload: it keeps both cores busy at
   once (daemon, clients, native runner processes), and on the VM it was
   sized on its wall-clock figures spread by up to a third between ten
   runs whenever the host's steal time rose, beyond the largest bound an
   end-to-end metric may have. *)

module Api = Service.Api

type kind = Run | Compile

let kind_name = function Run -> "run" | Compile -> "compile"

type config = {
  zapd : string;  (** daemon executable *)
  workdir : string;  (** holds the socket and the native root *)
  benches : Suite.bench list;
  tile : int option;
}

let clients = 2

type item = {
  bench : Suite.bench;
  kind : kind;
  request : Api.request;
  line : string;  (** the request as the wire carries it *)
}

let opts = function
  | Run -> Api.default_compile_opts
  | Compile -> { Api.default_compile_opts with Api.emit_c = true }

let item cfg ~native bench kind =
  let source = Api.Bench { name = bench.Suite.name; tile = cfg.tile } in
  let target = Api.default_target in
  let request =
    match kind with
    | Run ->
        Api.Run
          { source; opts = opts Run; target; spmd = false; native }
    | Compile -> Api.Compile { source; opts = opts Compile; target }
  in
  {
    bench;
    kind;
    request;
    line = Obs.Json.to_string (Api.request_to_json request);
  }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let items cfg ~native =
  Array.of_list
    (List.concat_map
       (fun b -> [ item cfg ~native b Run; item cfg ~native b Compile ])
       cfg.benches)

(* Client [c]'s request order: every rotation is a fresh permutation of
   the items, drawn from a generator the seed and the client fix.
   Re-drawing each rotation means which requests meet in the daemon's
   queue varies within a run, so no one seed's order decides the
   latency. *)
let client_order ~seed c =
  let rng = Random.State.make [| seed; c |] in
  fun n ->
    let a = Array.init n Fun.id in
    shuffle rng a;
    a

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

type reference = {
  checksum : string;  (** Exec.Refinterp live-out digest *)
  fingerprint : string;
}

let reference cfg (b : Suite.bench) =
  let prog = Suite.program ?tile:cfg.tile b in
  {
    checksum = Exec.Refinterp.checksum (Exec.Refinterp.run prog);
    fingerprint = Ir.Prog.fingerprint prog;
  }

(* The part of a reply that must not change between the cold and every
   warm answer (the native wall time is the one field that may). *)
let signature = function
  | Api.Ran { perf; native; _ } ->
      Printf.sprintf "%h %s %s" perf.Api.time_ns perf.Api.checksum
        (match native with Some n -> n.Api.native_checksum | None -> "-")
  | Api.Compiled { summary; _ } ->
      Digest.to_hex
        (Digest.string (Option.value summary.Api.emit_c ~default:""))
  | r -> Obs.Json.to_string (Api.response_to_json r)

let check ~native ~(reference : reference) ?cold item resp =
  let name = item.bench.Suite.name ^ " " ^ kind_name item.kind in
  let fail fmt = Printf.ksprintf (fun m -> Error (name ^ ": " ^ m)) fmt in
  let basic =
    match (item.kind, resp) with
    | _, Api.Failed d -> fail "%s" (Obs.Diagnostic.to_string d)
    | Run, Api.Ran { summary; perf; native = nat; _ } -> (
        if summary.Api.fingerprint <> reference.fingerprint then
          fail "fingerprint %s <> %s" summary.Api.fingerprint
            reference.fingerprint
        else if perf.Api.checksum <> reference.checksum then
          fail "checksum %s <> reference %s" perf.Api.checksum
            reference.checksum
        else
          match (native, nat) with
          | false, _ -> Ok ()
          | true, Some n
            when n.Api.native_matches
                 && n.Api.native_checksum = reference.checksum ->
              Ok ()
          | true, Some n ->
              fail "native checksum %s <> reference %s" n.Api.native_checksum
                reference.checksum
          | true, None -> fail "no native result")
    | Compile, Api.Compiled { summary; _ } ->
        if summary.Api.fingerprint <> reference.fingerprint then
          fail "fingerprint %s <> %s" summary.Api.fingerprint
            reference.fingerprint
        else if summary.Api.emit_c = None then fail "no emitted C"
        else Ok ()
    | _ -> fail "unexpected reply"
  in
  match (basic, cold) with
  | Ok (), Some c when signature c <> signature resp ->
      fail "warm reply differs from the cold reply"
  | r, _ -> r

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

let socket_of cfg = Filename.concat cfg.workdir "zapd.sock"

(* absolute, so the runner paths the daemon stores do not depend on a
   working directory *)
let native_root_of cfg =
  let d = Filename.concat cfg.workdir "native" in
  if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d

let stop d =
  ignore (Service.Client.roundtrip ~socket:d.socket Api.Shutdown);
  Proc_guard.reap ~grace_s:10.0 d.pid

let start cfg =
  let socket = socket_of cfg in
  let pid =
    Proc_guard.spawn cfg.zapd
      [
        "--socket"; socket; "--native-root"; native_root_of cfg; "--quiet";
      ]
  in
  let d = { pid; socket } in
  let deadline = Obs.now_ns () +. 30e9 in
  let rec wait () =
    match Service.Client.roundtrip ~socket Api.Stats with
    | Ok (Api.Stats_reply _) -> Ok d
    | _ when not (Proc_guard.alive pid) ->
        Proc_guard.reap ~grace_s:0.0 pid;
        Error "zapd exited during start-up"
    | _ when Obs.now_ns () > deadline ->
        Proc_guard.reap ~grace_s:0.0 pid;
        Error "zapd did not answer within 30 s"
    | _ ->
        Unix.sleepf 0.005;
        wait ()
  in
  wait ()

(* A fresh daemon on an empty native root, then every request of the
   rotation once (cold plans, cc builds, first runs).  Returns the
   daemon and the cold replies. *)
let setup cfg rot =
  Native.Build.remove_tree (native_root_of cfg);
  match start cfg with
  | Error m -> Error m
  | Ok d ->
      let colds =
        Array.map
          (fun it ->
            match Service.Client.roundtrip ~socket:d.socket it.request with
            | Ok r -> r
            | Error diag -> Api.Failed diag)
          rot
      in
      Ok (d, colds)

(* ------------------------------------------------------------------ *)
(* Closed loop over the socket                                         *)
(* ------------------------------------------------------------------ *)

type sample = { index : int; latency_ns : float }

(* Each client sends whole rotations, each in its own order, and stops
   at a rotation boundary once [seconds] have passed, so the request mix
   is the same in every run. *)
let closed_loop d items ~seed ~check_reply ~seconds =
  let n = Array.length items in
  let deadline = Obs.now_ns () +. (seconds *. 1e9) in
  let client c () =
    let tally = Stats.tally () in
    let samples = ref [] in
    let next_order = client_order ~seed c in
    let rec rotations first =
      if first || Obs.now_ns () < deadline then begin
        Array.iter
          (fun index ->
            let t0 = Obs.now_ns () in
            let r =
              Service.Client.roundtrip ~socket:d.socket items.(index).request
            in
            let latency_ns = Stats.since t0 in
            let verdict =
              match r with
              | Ok resp -> check_reply index resp
              | Error diag -> Error (Obs.Diagnostic.to_string diag)
            in
            Stats.record tally ~ok:(Result.is_ok verdict)
              (match verdict with Error m -> m | Ok () -> "");
            if Result.is_ok verdict then
              samples := { index; latency_ns } :: !samples)
          (next_order n);
        rotations false
      end
    in
    rotations true;
    (tally, !samples)
  in
  let domains = List.init clients (fun c -> Domain.spawn (client c)) in
  let results = List.map Domain.join domains in
  let tally = Stats.tally () in
  List.iter (fun (t, _) -> Stats.merge_into tally t) results;
  (tally, List.concat_map snd results)

let references cfg =
  List.map (fun b -> (b.Suite.name, reference cfg b)) cfg.benches

let cold_checks ~native rot refs colds tally =
  Array.iteri
    (fun i it ->
      let reference = List.assoc it.bench.Suite.name refs in
      let v = check ~native ~reference it colds.(i) in
      Stats.record tally ~ok:(Result.is_ok v)
        (match v with Error m -> "cold " ^ m | Ok () -> ""))
    rot

let warm_checker ~native rot refs colds index resp =
  let it = rot.(index) in
  check ~native
    ~reference:(List.assoc it.bench.Suite.name refs)
    ~cold:colds.(index) it resp

(* ------------------------------------------------------------------ *)
(* In-process replay                                                   *)
(* ------------------------------------------------------------------ *)

(* Per (rotation index, stage) samples in nanoseconds. *)
type timings = (int * string, float list) Hashtbl.t

let note (tm : timings) i stage ns =
  let prev = Option.value ~default:[] (Hashtbl.find_opt tm (i, stage)) in
  Hashtbl.replace tm (i, stage) (ns :: prev)

let timed tm i stage f =
  let t0 = Obs.now_ns () in
  let v = f () in
  note tm i stage (Stats.since t0);
  v

(* What the handler needs besides the plan: the engine's cache holds
   (compiled plan, native artifact); the replay keeps its own cache
   keyed exactly as the engine keys greedy plans, and adopts the
   daemon's artifacts from the shared native root. *)
type warm = {
  cache : Compilers.Driver.compiled Service.Cache.t;
  runners : (string, string) Hashtbl.t;  (** bench -> runner executable *)
  machine : Machine.t;
}

let greedy_key fingerprint =
  {
    Service.Cache.fingerprint;
    mode = "greedy:" ^ Compilers.Driver.level_name Compilers.Driver.C2F3;
    machine = "-";
    procs = 0;
  }

let warm_replay cfg ~native =
  let cache = Service.Cache.create () in
  let store = Native.Store.create ~root:(native_root_of cfg) () in
  let runners = Hashtbl.create 8 in
  let machine = Result.get_ok (Api.machine_of_name Api.default_target.Api.machine) in
  List.iter
    (fun b ->
      let prog = Suite.program ?tile:cfg.tile b in
      let c =
        Compilers.Driver.compile_exn_opts
          (Compilers.Driver.opts Compilers.Driver.C2F3)
          prog
      in
      Service.Cache.add cache (greedy_key (Ir.Prog.fingerprint prog)) c;
      if native then
        match Native.Store.get store c.Compilers.Driver.code with
        | Ok (a, _) -> Hashtbl.replace runners b.Suite.name a.Native.Store.runner
        | Error e -> failwith (Native.Build.error_to_string e))
    cfg.benches;
  { cache; runners; machine }

type counts = { loads : int; stores : int; flops : int }

(* The handler of one request, stage by stage, each stage a call into
   the layer that does the work.  Returns the interpreter counters of a
   Run, and fails the tally when a stage computes a wrong checksum. *)
let replay_stages cfg ~native w (refs : (string * reference) list) tm tally i it =
  let prog = timed tm i "zap.elaborate" (fun () -> Suite.program ?tile:cfg.tile it.bench) in
  let fp = timed tm i "ir.fingerprint" (fun () -> Ir.Prog.fingerprint prog) in
  let c =
    timed tm i "cache.lookup" (fun () -> Service.Cache.find w.cache (greedy_key fp))
  in
  let c = Option.get c in
  let code = c.Compilers.Driver.code in
  timed tm i "api.summary" (fun () ->
      ignore (Compilers.Driver.contracted_counts c);
      ignore (Compilers.Driver.remaining_arrays c);
      ignore (Exec.Interp.footprint_bytes code));
  let reference = List.assoc it.bench.Suite.name refs in
  match it.kind with
  | Compile ->
      ignore (timed tm i "sir.emit_c" (fun () -> Sir.Emit_c.to_string code));
      None
  | Run ->
      let r = timed tm i "interp.run" (fun () -> Exec.Interp.run code) in
      let cnt = Exec.Interp.counters r in
      let traced =
        timed tm i "interp+cachesim" (fun () ->
            let m = w.machine in
            let h = Cachesim.Cache.Hierarchy.create ~l1:m.Machine.l1 ?l2:m.Machine.l2 () in
            Exec.Interp.run ~trace:(fun ~addr ~write -> Cachesim.Cache.Hierarchy.access h ~addr ~write) code)
      in
      let sum = Exec.Interp.checksum traced in
      Stats.record tally ~ok:(sum = reference.checksum)
        (Printf.sprintf "%s replay: checksum %s <> reference %s" it.bench.Suite.name sum reference.checksum);
      ignore
        (timed tm i "comm.analyze" (fun () ->
             Comm.Model.analyze ~machine:w.machine ~procs:Api.default_target.Api.procs
               ~opts:Comm.Model.all_on c));
      (if native then
         let runner = Hashtbl.find w.runners it.bench.Suite.name in
         match timed tm i "native.run_exe" (fun () -> Native.Build.run_exe runner) with
         | Ok rr ->
             note tm i "native.kernel" (Int64.to_float rr.Native.Build.wall_ns);
             Stats.record tally ~ok:(rr.Native.Build.checksum = reference.checksum)
               (it.bench.Suite.name ^ " replay: native checksum")
         | Error e -> Stats.record tally ~ok:false (Native.Build.error_to_string e));
      Some { loads = cnt.Exec.Interp.loads; stores = cnt.Exec.Interp.stores; flops = cnt.Exec.Interp.flops }

let compile_pairs = 10

(* without a C compiler a Run has no native stage *)
let run_stages ~native =
  [ "zap.elaborate"; "ir.fingerprint"; "cache.lookup"; "api.summary"; "interp+cachesim"; "comm.analyze" ]
  @ if native then [ "native.run_exe" ] else []

let compile_stages = [ "zap.elaborate"; "ir.fingerprint"; "cache.lookup"; "api.summary"; "sir.emit_c" ]

(* Per-layer breakdown.  Half of [seconds] goes to the closed loop that
   measures client latency, half to in-process replay rounds (at least
   [min_rounds]; each stage of each request is summarized by its median
   over the rounds).  Runs ask for native execution when the host has a
   C compiler. *)
let layers ?(native = Native.Toolchain.available ()) cfg ~refs ~seed ~seconds
    ~min_rounds =
  let rot = items cfg ~native in
  let tally = Stats.tally () in
  match setup cfg rot with
  | Error m ->
      Stats.record tally ~ok:false m;
      (tally, [])
  | Ok (d, colds) ->
      let loop_tally, samples =
        Fun.protect
          ~finally:(fun () -> stop d)
          (fun () ->
            cold_checks ~native rot refs colds tally;
            closed_loop d rot ~seed
              ~check_reply:(warm_checker ~native rot refs colds)
              ~seconds:(seconds /. 2.0))
      in
      Stats.merge_into tally loop_tally;
      let engine = Service.Engine.create ~native_root:(native_root_of cfg) () in
      Array.iter (fun it -> ignore (Service.Engine.handle engine it.request)) rot;
      let w = warm_replay cfg ~native in
      let tm : timings = Hashtbl.create 64 in
      let counts = ref None in
      let s0 = Service.Engine.cache_stats engine in
      let t_end = Obs.now_ns () +. (seconds /. 2.0 *. 1e9) in
      let rec rounds k =
        if k >= min_rounds && Obs.now_ns () >= t_end then ()
        else begin
          Array.iteri
            (fun i it ->
              let handle () =
                let resp = timed tm i "engine.handle" (fun () -> Service.Engine.handle engine it.request) in
                let v = check ~native ~reference:(List.assoc it.bench.Suite.name refs) ~cold:colds.(i) it resp in
                Stats.record tally ~ok:(Result.is_ok v) (match v with Error m -> "replay " ^ m | Ok () -> "");
                ignore (timed tm i "api.encode" (fun () -> Obs.Json.to_string (Api.response_to_json resp)));
                ignore (timed tm i "api.decode" (fun () -> Api.request_of_line it.line))
              in
              let replay () = timed tm i "replay" (fun () -> replay_stages cfg ~native w refs tm tally i it) in
              (* whichever of the two runs second finds the caches warm
                 from the first: alternate the order.  A Compile takes
                 about a millisecond, so it is paired [compile_pairs]
                 times a round to outweigh timer and scheduling noise. *)
              let pair j =
                if (k + j) mod 2 = 0 then (handle (); replay ())
                else
                  let c = replay () in
                  handle ();
                  c
              in
              let c = pair 0 in
              if it.kind = Compile then
                for j = 1 to compile_pairs - 1 do
                  ignore (pair j)
                done;
              if k = 0 then
                match c with
                | Some c ->
                    counts :=
                      Some
                        (match !counts with
                        | None -> c
                        | Some a -> { loads = a.loads + c.loads; stores = a.stores + c.stores; flops = a.flops + c.flops })
                | None -> ())
            rot;
          rounds (k + 1)
        end
      in
      rounds 0;
      let s1 = Service.Engine.cache_stats engine in
      let med i stage =
        match Hashtbl.find_opt tm (i, stage) with
        | Some xs -> Stats.median xs
        | None -> 0.0
      in
      let indices kind =
        List.filter (fun i -> rot.(i).kind = kind) (List.init (Array.length rot) Fun.id)
      in
      let all = List.init (Array.length rot) Fun.id in
      (* mean over the requests of [idx] of each request's median, ms *)
      let per is stage = Stats.ms_of_ns (Stats.mean (List.map (fun i -> med i stage) is)) in
      let runs = indices Run and compiles = indices Compile in
      let handle_run = per runs "engine.handle" in
      let handle_compile = per compiles "engine.handle" in
      (* Coverage and overhead compare the stages with the handle call
         of the same round, which ran moments before or after: the
         host's speed phases last seconds, so a per-round ratio cancels
         them where a ratio of medians would not. *)
      let at i stage r =
        List.nth (List.rev (Hashtbl.find tm (i, stage))) r
      in
      let per_round is f =
        List.concat_map
          (fun i -> List.init (List.length (Hashtbl.find tm (i, "engine.handle"))) (f i))
          is
      in
      let cov is stages =
        Stats.median
          (per_round is (fun i r ->
               Stats.coverage
                 ~stages:(List.map (fun st -> at i st r) stages)
                 ~total:(at i "engine.handle" r)))
      in
      let cachesim_ms = per runs "interp+cachesim" -. per runs "interp.run" in
      let cov_run = cov runs (run_stages ~native) in
      let cov_compile = cov compiles compile_stages in
      let overhead_run =
        Stats.median
          (per_round runs (fun i r ->
               at i "replay" r -. at i "interp.run" r -. at i "engine.handle" r))
      in
      List.iter
        (fun (kind, c) ->
          Stats.record tally ~ok:(c >= 0.95)
            (Printf.sprintf "stage coverage of %s requests %.3f < 0.95" kind c))
        [ ("run", cov_run); ("compile", cov_compile) ];
      let client_run =
        Stats.mean
          (List.filter_map
             (fun i ->
               match List.filter (fun s -> s.index = i) samples with
               | [] -> None
               | ss -> Some (Stats.median (List.map (fun s -> s.latency_ns) ss)))
             runs)
      in
      let hits = s1.Service.Cache.hits - s0.Service.Cache.hits in
      let looked = hits + s1.Service.Cache.misses - s0.Service.Cache.misses in
      let c = Option.value !counts ~default:{ loads = 0; stores = 0; flops = 0 } in
      let m = Report.metric in
      ( tally,
        [
          m "engine.handle_run_ms" "ms" handle_run;
          m "engine.handle_compile_ms" "ms" handle_compile;
          m "server.wait_ms" "ms" (Stats.ms_of_ns client_run -. handle_run)
            ~note:"client Run latency minus engine.handle_run_ms";
          m "api.decode_us" "us" (1e3 *. per all "api.decode");
          m "api.encode_us" "us" (1e3 *. per all "api.encode");
          m "zap.elaborate_ms" "ms" (per all "zap.elaborate");
          m "ir.fingerprint_us" "us" (1e3 *. per all "ir.fingerprint");
          m "cache.lookup_us" "us" (1e3 *. per all "cache.lookup");
          m "cache.hit_rate" "ratio" (if looked > 0 then float_of_int hits /. float_of_int looked else 0.0);
          m "api.summary_us" "us" (1e3 *. per all "api.summary");
          m "sir.emit_c_ms" "ms" (per compiles "sir.emit_c");
          m "interp.run_ms" "ms" (per runs "interp.run");
          m "cachesim.trace_ms" "ms" cachesim_ms;
          m "interp.loads" "count" (float_of_int c.loads) ~note:"one rotation's Runs";
          m "interp.stores" "count" (float_of_int c.stores);
          m "interp.flops" "count" (float_of_int c.flops);
          m "comm.analyze_ms" "ms" (per runs "comm.analyze");
          m "native.run_exe_ms" "ms" (per runs "native.run_exe");
          m "native.kernel_ms" "ms" (per runs "native.kernel");
          m "stage.coverage_run" "ratio" cov_run;
          m "stage.coverage_compile" "ratio" cov_compile;
          m "trace.overhead_run_ms" "ms" (Stats.ms_of_ns overhead_run)
            ~note:"traced Run (the replay without its extra untraced interpretation) minus engine.handle_run_ms";
        ] )
