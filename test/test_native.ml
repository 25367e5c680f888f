(* The native execution engine: toolchain probing, argv-array process
   plumbing (the shell-quoting regression), the content-addressed
   artifact store's warm path, differential checksum equality against
   the interpreter, and the engine-level [Run {native = true}] path.

   Every test that needs an actual C compiler guards on
   [Native.Toolchain.available ()] and passes vacuously without one,
   so `dune runtest` stays green on compiler-less machines. *)

module Api = Service.Api

let cc = Native.Toolchain.available ()

(* A scratch directory whose name contains a space — the regression
   input for the old [Sys.command]-based cc path. *)
let with_space_dir f =
  let base = Native.Build.fresh_workdir ~salt:7134 () in
  let dir = Filename.concat base "with space" in
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> Native.Build.remove_tree base) (fun () -> f dir)

let compile_code level prog =
  let c = Compilers.Driver.compile_exn_opts (Compilers.Driver.opts level) prog in
  c.Compilers.Driver.code

let interp_checksum code = Exec.Interp.checksum (Exec.Interp.run code)

(* Toolchain detection: one atomic probe, consistent answers. *)
let test_toolchain () =
  let a = Native.Toolchain.detect () in
  let b = Native.Toolchain.detect () in
  Alcotest.(check bool) "probe is stable" true (a = b);
  Alcotest.(check bool)
    "available agrees with detect" (a <> None)
    (Native.Toolchain.available ());
  Alcotest.(check bool)
    "oracle delegates to the shared probe"
    (Native.Toolchain.available ())
    (Fuzz.Oracle.cc_available ());
  (match a with
  | None ->
      Alcotest.(check string) "describe without cc" "none"
        (Native.Toolchain.describe ())
  | Some info ->
      Alcotest.(check bool) "family recorded" true
        (List.mem info.Native.Toolchain.family [ "gcc"; "clang"; "cc" ]);
      Alcotest.(check string) "describe is the version line"
        info.Native.Toolchain.version_line
        (Native.Toolchain.describe ()));
  let argv = Native.Toolchain.cc_argv () in
  Alcotest.(check bool) "compile command pins fp behavior" true
    (List.mem "-fno-builtin" argv && List.mem "-ffp-contract=off" argv)

(* Proc: argv arrays, exit-status rendering, launch failures. *)
let test_proc () =
  Alcotest.(check string) "exit rendering" "exit 1"
    (Native.Proc.status_string (Unix.WEXITED 1));
  Alcotest.(check string) "signal rendering" "signal -7"
    (Native.Proc.status_string (Unix.WSIGNALED (-7)));
  let missing = Native.Proc.run [ "/definitely/not/a/binary" ] in
  Alcotest.(check bool) "unlaunchable program reports exit 127" true
    (missing.Native.Proc.status = Unix.WEXITED 127);
  Alcotest.(check bool) "outcome preserves the exact argv" true
    (missing.Native.Proc.argv = [ "/definitely/not/a/binary" ]);
  let rendered = Native.Proc.render_argv [ "cc"; "-o"; "a b/runner" ] in
  Alcotest.(check bool) "spaced paths are quoted in renderings" true
    (rendered <> "cc -o a b/runner"
    && Astring.String.is_infix ~affix:"a b/runner" rendered)

(* Failure payloads carry the exact command line and exit status
   (what makes a shrunk "cc failed" repro actionable). *)
let test_error_payload () =
  let synthetic =
    {
      Native.Build.argv = [ "cc"; "-O2"; "-c"; "dir with space/cluster_0.c" ];
      status = "exit 1";
      detail = "cluster_0.c:3: error: boom";
    }
  in
  let s = Native.Build.error_to_string synthetic in
  List.iter
    (fun affix ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S" affix)
        true
        (Astring.String.is_infix ~affix s))
    [ "dir with space/cluster_0.c"; "exit 1"; "boom" ];
  (* A real launch failure: run_exe on a file that is not executable. *)
  with_space_dir @@ fun dir ->
  let fake = Filename.concat dir "notarunner" in
  let oc = open_out fake in
  output_string oc "plain text\n";
  close_out oc;
  match Native.Build.run_exe fake with
  | Ok _ -> Alcotest.fail "a text file ran as a native runner?"
  | Error e ->
      Alcotest.(check (list string)) "argv preserved" [ fake ]
        e.Native.Build.argv;
      Alcotest.(check string) "launch failure surfaces as 127" "exit 127"
        e.Native.Build.status

(* The shell-quoting regression: the whole build-and-run pipeline under
   a temp dir whose name contains a space. *)
let test_space_dir () =
  if cc then
    with_space_dir @@ fun dir ->
    let old = Filename.get_temp_dir_name () in
    Filename.set_temp_dir_name dir;
    Fun.protect ~finally:(fun () -> Filename.set_temp_dir_name old)
    @@ fun () ->
    let code =
      compile_code Compilers.Driver.C2F3 (Suite.load ~tile:8 "simple")
    in
    match Native.Build.run_once ~salt:11 code with
    | Ok r ->
        Alcotest.(check string) "checksum under a spaced workdir"
          (interp_checksum code) r.Native.Build.checksum
    | Error e -> Alcotest.fail (Native.Build.error_to_string e)

(* Differential: every corpus repro, native vs interpreter, at the
   base and fully fused levels. *)
let corpus_files () =
  if Sys.file_exists "corpus" && Sys.is_directory "corpus" then
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".zir")
    |> List.sort String.compare
    |> List.map (Filename.concat "corpus")
  else []

let check_native_matches name code =
  match Native.Build.run_once ~salt:(Hashtbl.hash name) code with
  | Ok r ->
      Alcotest.(check string)
        (name ^ ": native == interpreter")
        (interp_checksum code) r.Native.Build.checksum
  | Error e -> Alcotest.failf "%s: %s" name (Native.Build.error_to_string e)

let test_corpus_differential () =
  if cc then begin
    let files = corpus_files () in
    Alcotest.(check bool) "corpus present" true (files <> []);
    List.iter
      (fun path ->
        match Fuzz.Repro.load path with
        | Error msg -> Alcotest.failf "%s: %s" path msg
        | Ok prog ->
            List.iter
              (fun level ->
                let name =
                  Printf.sprintf "%s @ %s" (Filename.basename path)
                    (Compilers.Driver.level_name level)
                in
                check_native_matches name (compile_code level prog))
              Compilers.Driver.[ Baseline; C2F3 ])
      files
  end

(* Differential over generated programs (the oracle's input source). *)
let qcheck_generated =
  QCheck.Test.make ~count:8 ~name:"generated: native == interp @ base, c2+f3"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      (not cc)
      ||
      let prog =
        Fuzz.Gen.generate (Support.Prng.create (Int64.of_int seed))
      in
      List.for_all
        (fun level ->
          let code = compile_code level prog in
          match Native.Build.run_once ~salt:seed code with
          | Ok r -> String.equal r.Native.Build.checksum (interp_checksum code)
          | Error e ->
              QCheck.Test.fail_report (Native.Build.error_to_string e))
        Compilers.Driver.[ Baseline; C2F3 ])

(* A generated program, native against the interpreter at the base and
   fully fused levels. *)
let check_generated_seed seed =
  if cc then
    let prog = Fuzz.Gen.generate (Support.Prng.create (Int64.of_int seed)) in
    List.iter
      (fun level ->
        check_native_matches
          (Printf.sprintf "seed %d @ %s" seed
             (Compilers.Driver.level_name level))
          (compile_code level prog))
      Compilers.Driver.[ Baseline; C2F3 ]

(* Generated seed 15009 computes a NaN through min/max and hashes it
   with hashrand: native and interpreter agree only while both return
   the same NaN bits. *)
let test_nan_hashrand_seed () = check_generated_seed 15009

(* Generated seed 66180 hashes [(max(B, A) - A@-1) / -(A@1)], a NaN
   whose sign cc and OCaml decide differently (cc folds [a / -(b)] into
   [(-a) / b]): they agree only because hashrand hashes every NaN as
   one. *)
let test_nan_sign_hashrand_seed () = check_generated_seed 66180

(* The artifact store's warm path: one cc invocation ever, byte-identical
   checksums cold vs warm, and disk adoption across a "restart" (a second
   store over the same root).  The root has a space in its name. *)
let test_store_warm_path () =
  if cc then
    with_space_dir @@ fun root ->
    let code =
      compile_code Compilers.Driver.C2F3 (Suite.load ~tile:8 "frac")
    in
    let store = Native.Store.create ~root () in
    let get s =
      match Native.Store.get s code with
      | Ok (a, fresh) -> (a, fresh)
      | Error e -> Alcotest.fail (Native.Build.error_to_string e)
    in
    let run a =
      match Native.Build.run_exe a.Native.Store.runner with
      | Ok r -> r.Native.Build.checksum
      | Error e -> Alcotest.fail (Native.Build.error_to_string e)
    in
    let cold, fresh_cold = get store in
    let dir = Filename.dirname cold.Native.Store.runner in
    Alcotest.(check (list string)) "artifact layout"
      [ "meta"; "prog.c"; "runner" ]
      (List.sort String.compare (Array.to_list (Sys.readdir dir)));
    Alcotest.(check string) "prog.c is the emitted C, byte for byte"
      (Sir.Emit_c.to_string code)
      (In_channel.with_open_bin (Filename.concat dir "prog.c")
         In_channel.input_all);
    Alcotest.(check int) "units = clusters"
      (Sir.Emit_c.cluster_count code) cold.Native.Store.units;
    let cold_sum = run cold in
    let warm, fresh_warm = get store in
    Alcotest.(check bool) "cold get compiles" true fresh_cold;
    Alcotest.(check bool) "warm get does not" false fresh_warm;
    Alcotest.(check string) "same content key" cold.Native.Store.key
      warm.Native.Store.key;
    Alcotest.(check string) "byte-identical checksum cold vs warm" cold_sum
      (run warm);
    let s = Native.Store.stats store in
    Alcotest.(check int) "store built once" 1 s.Native.Store.builds;
    Alcotest.(check int) "store reused once" 1 s.Native.Store.reuses;
    (* A fresh store over the same root — the daemon-restart scenario —
       adopts the artifact from disk without invoking cc. *)
    let restarted = Native.Store.create ~root () in
    let adopted, fresh_adopted = get restarted in
    Alcotest.(check bool) "restart adopts from disk" false fresh_adopted;
    Alcotest.(check int) "adoption never invokes cc" 0
      (Native.Store.stats restarted).Native.Store.builds;
    Alcotest.(check string) "adopted runner agrees" cold_sum (run adopted)

(* A restarted store adopts only a sound artifact: with its runner
   emptied, its meta deleted or naming another toolchain, the directory
   at the key is moved aside and rebuilt, and the rebuilt runner agrees
   with the cold one. *)
let test_store_rebuilds_unsound () =
  if cc then
    with_space_dir @@ fun root ->
    let code =
      compile_code Compilers.Driver.C2F3 (Suite.load ~tile:8 "frac")
    in
    let get s =
      match Native.Store.get s code with
      | Ok (a, _) -> a
      | Error e -> Alcotest.fail (Native.Build.error_to_string e)
    in
    let run a =
      match Native.Build.run_exe a.Native.Store.runner with
      | Ok r -> r.Native.Build.checksum
      | Error e -> Alcotest.fail (Native.Build.error_to_string e)
    in
    let cold = get (Native.Store.create ~root ()) in
    let cold_sum = run cold in
    let dir = Filename.dirname cold.Native.Store.runner in
    let write name text =
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
          Out_channel.output_string oc text)
    in
    List.iteri
      (fun i (fault, break) ->
        break ();
        let restarted = Native.Store.create ~root () in
        let rebuilt = get restarted in
        Alcotest.(check int) (fault ^ ": rebuilt once") 1
          (Native.Store.stats restarted).Native.Store.builds;
        Alcotest.(check string) (fault ^ ": rebuilt runner agrees") cold_sum
          (run rebuilt);
        Alcotest.(check string) (fault ^ ": meta names the toolchain")
          (Native.Toolchain.describe () ^ "\n")
          (In_channel.with_open_bin (Filename.concat dir "meta")
             In_channel.input_all);
        let aside =
          Sys.readdir root |> Array.to_list
          |> List.filter (fun f -> String.starts_with ~prefix:"unsound-" f)
        in
        Alcotest.(check int) (fault ^ ": the unsound directory is aside")
          (i + 1) (List.length aside))
      [
        ("empty runner", fun () -> write "runner" "");
        ("no meta", fun () -> Sys.remove (Filename.concat dir "meta"));
        ("another toolchain", fun () -> write "meta" "cc 0.0\n");
      ]

(* Each fused cluster is its own function in the runner: the noinline
   marker keeps cc from folding the clusters into main, where the
   runner's time would no longer be the plan's loop nests. *)
let test_clusters_survive_cc () =
  let nm_available = Native.Proc.succeeded (Native.Proc.run [ "nm"; "--version" ]) in
  if cc && nm_available then begin
    let code =
      compile_code Compilers.Driver.C2F3 (Suite.load ~tile:16 "simple")
    in
    Alcotest.(check int) "simple @ c2+f3, tile 16 has 14 clusters" 14
      (Sir.Emit_c.cluster_count code);
    let dir = Native.Build.fresh_workdir ~salt:1414 () in
    Fun.protect ~finally:(fun () -> Native.Build.remove_tree dir) @@ fun () ->
    match Native.Build.write_and_compile ~dir code with
    | Error e -> Alcotest.fail (Native.Build.error_to_string e)
    | Ok b ->
        let o = Native.Proc.run [ "nm"; b.Native.Build.runner ] in
        Alcotest.(check bool) "nm succeeded" true (Native.Proc.succeeded o);
        let symbols =
          String.split_on_char '\n' o.Native.Proc.stdout
          |> List.filter_map (fun line ->
                 match String.split_on_char ' ' (String.trim line) with
                 | [ _; _; name ] | [ _; name ] -> Some name
                 | _ -> None)
        in
        for k = 0 to 13 do
          let name = Printf.sprintf "cluster_%d" k in
          Alcotest.(check bool) (name ^ " is a symbol of the runner") true
            (List.mem name symbols)
        done
  end

(* Engine level: [Run {native = true}] twice — one build, two runs,
   responses identical modulo the wall clock. *)
let test_engine_native () =
  if cc then begin
    let root = Native.Build.fresh_workdir ~salt:4242 () in
    Fun.protect ~finally:(fun () -> Native.Build.remove_tree root)
    @@ fun () ->
    let engine = Service.Engine.create ~jobs:1 ~native_root:root () in
    let req =
      Api.Run
        {
          source = Api.Bench { name = "simple"; tile = Some 8 };
          opts = Api.default_compile_opts;
          target = Api.default_target;
          spmd = false;
          native = true;
        }
    in
    let strip = function
      | Api.Ran ({ native = Some n; _ } as r) ->
          Api.Ran { r with native = Some { n with Api.native_wall_ns = 0L } }
      | other -> other
    in
    match (Service.Engine.handle engine req, Service.Engine.handle engine req) with
    | ( (Api.Ran { perf; native = Some n1; _ } as r1),
        (Api.Ran { native = Some n2; _ } as r2) ) ->
        Alcotest.(check bool) "native checksum matches the model" true
          n1.Api.native_matches;
        Alcotest.(check string) "checksum equals perf.checksum"
          perf.Api.checksum n1.Api.native_checksum;
        Alcotest.(check string) "warm run agrees" n1.Api.native_checksum
          n2.Api.native_checksum;
        Alcotest.(check bool) "responses identical modulo wall clock" true
          (strip r1 = strip r2);
        let s = Service.Engine.server_stats engine in
        Alcotest.(check int) "one cold build" 1 s.Api.natives_built;
        Alcotest.(check int) "warm request reuses the artifact" 1
          s.Api.natives_reused;
        Alcotest.(check int) "both requests executed natively" 2
          s.Api.native_runs
    | r1, r2 ->
        Alcotest.failf "unexpected responses: %s / %s"
          (Obs.Json.to_string (Api.response_to_json r1))
          (Obs.Json.to_string (Api.response_to_json r2))
  end

(* A native store root that cannot be created fails the native run
   with a typed diagnostic; it neither escapes [handle] as an
   exception nor stops the engine answering the next request.  No
   compiler is needed: the root is created before cc is called. *)
let test_unusable_store_root () =
  let gone = Native.Build.fresh_workdir ~salt:5150 () in
  Native.Build.remove_tree gone;
  let engine =
    Service.Engine.create ~jobs:1
      ~native_root:(Filename.concat gone "store")
      ()
  in
  let run native =
    Service.Engine.handle engine
      (Api.Run
         {
           source = Api.Bench { name = "simple"; tile = Some 8 };
           opts = Api.default_compile_opts;
           target = Api.default_target;
           spmd = false;
           native;
         })
  in
  (match run true with
  | Api.Failed d ->
      Alcotest.(check string) "native phase" "native" d.Obs.Diagnostic.phase
  | other ->
      Alcotest.failf "expected a native failure: %s"
        (Obs.Json.to_string (Api.response_to_json other)));
  match run false with
  | Api.Ran _ -> ()
  | other ->
      Alcotest.failf "the engine must keep serving: %s"
        (Obs.Json.to_string (Api.response_to_json other))

(* Concurrent first runs of one plan build its runner once: the store
   shares the build among the domains handling the requests. *)
let test_concurrent_runs_build_once () =
  if cc then begin
    let root = Native.Build.fresh_workdir ~salt:6161 () in
    Fun.protect ~finally:(fun () -> Native.Build.remove_tree root)
    @@ fun () ->
    let engine = Service.Engine.create ~jobs:4 ~native_root:root () in
    let req =
      Api.Run
        {
          source = Api.Bench { name = "frac"; tile = Some 16 };
          opts = Api.default_compile_opts;
          target = Api.default_target;
          spmd = false;
          native = true;
        }
    in
    Support.Pool.map ~domains:4 (Service.Engine.handle engine)
      (List.init 4 (fun _ -> req))
    |> List.iter (function
         | Api.Ran { native = Some n; _ } ->
             Alcotest.(check bool) "native checksum matches the model" true
               n.Api.native_matches
         | other ->
             Alcotest.failf "expected a native run: %s"
               (Obs.Json.to_string (Api.response_to_json other)));
    let s = Service.Engine.server_stats engine in
    Alcotest.(check int) "one cold build" 1 s.Api.natives_built;
    Alcotest.(check int) "the others reuse it" 3 s.Api.natives_reused
  end

let suites =
  [
    ( "native",
      [
        Alcotest.test_case "toolchain probe" `Quick test_toolchain;
        Alcotest.test_case "proc argv + status" `Quick test_proc;
        Alcotest.test_case "error payloads" `Quick test_error_payload;
        Alcotest.test_case "spaced temp dir regression" `Quick test_space_dir;
        Alcotest.test_case "corpus differential" `Slow test_corpus_differential;
        QCheck_alcotest.to_alcotest qcheck_generated;
        Alcotest.test_case "generated seed 15009: NaN through hashrand" `Quick
          test_nan_hashrand_seed;
        Alcotest.test_case "generated seed 66180: NaN sign through hashrand"
          `Quick test_nan_sign_hashrand_seed;
        Alcotest.test_case "store warm path" `Quick test_store_warm_path;
        Alcotest.test_case "store rebuilds an unsound artifact" `Quick
          test_store_rebuilds_unsound;
        Alcotest.test_case "every cluster survives cc" `Quick
          test_clusters_survive_cc;
        Alcotest.test_case "engine native run" `Quick test_engine_native;
        Alcotest.test_case "unusable store root fails typed" `Quick
          test_unusable_store_root;
        Alcotest.test_case "concurrent first runs build once" `Quick
          test_concurrent_runs_build_once;
      ] );
  ]
