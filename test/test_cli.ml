(* Smoke tests for the zapc command-line driver (built binary). *)

let zapc = "../bin/zapc.exe"

let available = Sys.file_exists zapc

(* [env] holds NAME=VALUE assignments for zapc's environment *)
let run ?(env = []) args =
  let out = Filename.temp_file "zapc" ".out" in
  let cmd =
    Printf.sprintf "%s%s %s > %s 2>&1"
      (String.concat "" (List.map (fun a -> "env " ^ Filename.quote a ^ " ") env))
      (Filename.quote zapc) args (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, text)

let contains text sub = Astring.String.is_infix ~affix:sub text

let test_bench_compile () =
  if available then begin
    let code, out = run "--bench tomcatv -O c2 --tile 12" in
    Alcotest.(check int) "exit 0" 0 code;
    Alcotest.(check bool) "reports contraction" true
      (contains out "allocations remain")
  end

let test_dump_plan () =
  if available then begin
    let code, out = run "--bench ep --tile 64 -O c2 --dump-plan" in
    Alcotest.(check int) "exit 0" 0 code;
    Alcotest.(check bool) "shows fused reductions" true
      (contains out "reduction");
    Alcotest.(check bool) "shows contraction" true (contains out "contract")
  end

let test_run_flag () =
  if available then begin
    let code, out = run "--bench frac --tile 16 -O c2+f3 --run -m paragon -p 4" in
    Alcotest.(check int) "exit 0" 0 code;
    Alcotest.(check bool) "reports time" true (contains out "Intel Paragon");
    Alcotest.(check bool) "reports checksum" true (contains out "checksum")
  end

let test_file_input () =
  if available then begin
    let src = Filename.temp_file "prog" ".zap" in
    let oc = open_out src in
    output_string oc
      {|program tiny;
config n := 8;
region R = [1..n];
var A, B : [0..n+1];
export B;
begin
  [R] A := index1 * 2.0;
  [R] B := A + A@[-1];
end.
|};
    close_out oc;
    let code, out = run (Filename.quote src ^ " -O c2 --dump-c") in
    Sys.remove src;
    Alcotest.(check int) "exit 0" 0 code;
    Alcotest.(check bool) "emits C" true (contains out "#include <math.h>")
  end

(* --emit-c writes the C the native engine compiles and prints the
   command that compiles it: Native.Toolchain.cc_argv, whose fp flags
   the digest depends on.  Built that way, the program prints --run's
   checksum first. *)
let test_emit_c_roundtrip () =
  if available then begin
    let dir = Native.Build.fresh_workdir ~salt:2718 () in
    Fun.protect ~finally:(fun () -> Native.Build.remove_tree dir) @@ fun () ->
    let file = Filename.concat dir "frac.c" in
    let exe = Filename.concat dir "frac" in
    let args = "--bench frac --tile 16 -O c2+f3" in
    let code, out =
      run (Printf.sprintf "%s --emit-c %s" args (Filename.quote file))
    in
    Alcotest.(check int) "exit 0" 0 code;
    let argv = Native.Toolchain.cc_argv () @ [ "-o"; exe; file; "-lm" ] in
    Alcotest.(check bool) "prints the cc_argv command" true
      (contains out
         (Printf.sprintf "wrote %s (compile with: %s)\n" file
            (Native.Proc.render_argv argv)));
    if Native.Toolchain.available () then begin
      Alcotest.(check bool) "the printed command compiles" true
        (Native.Proc.succeeded (Native.Proc.run argv));
      let ran = Native.Proc.run [ exe ] in
      let _, run_out = run (args ^ " --run") in
      let checksum =
        match Astring.String.find_sub ~sub:"checksum " run_out with
        | Some i -> String.sub run_out (i + 9) 16
        | None -> Alcotest.failf "no checksum in --run output: %s" run_out
      in
      Alcotest.(check string) "first field is --run's checksum" checksum
        (List.hd (String.split_on_char ' ' ran.Native.Proc.stdout))
    end
  end

(* Golden test for the machine-readable compile report: valid JSON on
   stdout, stable schema, fusion/contraction counters and the pass-span
   tree present. *)
let test_stats_json () =
  if available then begin
    let code, out = run "--bench ep --tile 32 -O c2 --stats json:-" in
    Alcotest.(check int) "exit 0" 0 code;
    let j =
      match Obs.Json.of_string (String.trim out) with
      | Ok j -> j
      | Error e -> Alcotest.failf "stats not valid JSON (%s): %s" e out
    in
    Alcotest.(check bool)
      "schema" true
      (Obs.Json.member "schema" j
      = Some (Obs.Json.String "zapc/compile-report/1"));
    List.iter
      (fun key ->
        match Obs.Json.find j [ "counters"; key ] with
        | Some (Obs.Json.Int _) -> ()
        | _ -> Alcotest.failf "missing counter %s" key)
      [
        "fusion.attempted";
        "fusion.accepted";
        "fusion.rejected.nonnull-flow";
        "contraction.candidates";
        "contraction.performed";
        "dep.edges";
      ];
    (* every compiled pass appears in the span tree with a timing *)
    let rec span_names acc = function
      | Obs.Json.Obj _ as s ->
          let name =
            match Obs.Json.member "name" s with
            | Some (Obs.Json.String n) -> n
            | _ -> Alcotest.fail "span without name"
          in
          (match Obs.Json.member "ns" s with
          | Some (Obs.Json.Float _ | Obs.Json.Int _) -> ()
          | _ -> Alcotest.failf "span %s without ns timing" name);
          let kids =
            match Obs.Json.member "children" s with
            | Some (Obs.Json.List l) -> l
            | _ -> []
          in
          List.fold_left span_names (name :: acc) kids
      | _ -> Alcotest.fail "span is not an object"
    in
    let names =
      match Obs.Json.member "spans" j with
      | Some (Obs.Json.List spans) -> List.fold_left span_names [] spans
      | _ -> Alcotest.fail "no spans"
    in
    List.iter
      (fun n ->
        Alcotest.(check bool) (n ^ " span") true (List.mem n names))
      [ "parse"; "elaborate"; "compile"; "check"; "plan"; "fusion";
        "contraction"; "scalarize" ];
    (* the contraction decisions are listed with their shapes *)
    match Obs.Json.member "contracted" j with
    | Some (Obs.Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "no contracted arrays listed"
  end

(* The internal spelling of the paper levels must be accepted too. *)
let test_level_spellings () =
  if available then
    List.iter
      (fun l ->
        let code, _ = run (Printf.sprintf "--bench ep --tile 16 -O %s" l) in
        Alcotest.(check int) (l ^ " accepted") 0 code)
      [ "c2+f3"; "c2f3"; "C2+F4"; "c2p" ]

(* Golden: the exact level ladder, paper spelling then internal, one
   level per line. *)
let test_list_levels () =
  if available then begin
    let code, out = run "--list-levels" in
    Alcotest.(check int) "exit 0" 0 code;
    Alcotest.(check string) "ladder"
      "baseline baseline\n\
       f1 f1\n\
       c1 c1\n\
       f2 f2\n\
       f3 f3\n\
       c2 c2\n\
       c2+f3 c2f3\n\
       c2+f4 c2f4\n\
       c2+p c2p\n"
      out
  end

(* --plan ilp: provenance lands in the stats JSON, the ILP cost never
   exceeds the searched one nor that greedy's, and two runs emit
   identical plan provenance (span timings legitimately differ, the
   plan must not). *)
let test_plan_ilp_stats () =
  if available then begin
    let args = "--bench frac --tile 16 --plan ilp -m t3e -p 4 --stats json:-" in
    let code, out = run args in
    Alcotest.(check int) "exit 0" 0 code;
    let j =
      match Obs.Json.of_string (String.trim out) with
      | Ok j -> j
      | Error e -> Alcotest.failf "stats not valid JSON (%s): %s" e out
    in
    let plan =
      match Obs.Json.member "plan" j with
      | Some p -> p
      | None -> Alcotest.fail "no plan provenance in stats"
    in
    (match Obs.Json.member "strategy" plan with
    | Some (Obs.Json.String ("ilp" | "search" | "greedy")) -> ()
    | _ -> Alcotest.fail "plan.strategy missing");
    (match
       ( Obs.Json.member "greedy_total_ns" plan,
         Obs.Json.member "search_total_ns" plan,
         Obs.Json.member "ilp_total_ns" plan )
     with
    | Some (Obs.Json.Float g), Some (Obs.Json.Float s), Some (Obs.Json.Float i)
      ->
        Alcotest.(check bool) "search <= greedy" true (s <= g +. 1e-6);
        Alcotest.(check bool) "ilp <= search" true (i <= s +. 1e-6)
    | _ -> Alcotest.fail "plan totals missing");
    (match Obs.Json.member "blocks" plan with
    | Some (Obs.Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "plan.blocks missing");
    let _, out2 = run args in
    let plan_str j =
      match Obs.Json.of_string (String.trim j) with
      | Ok j -> (
          match Obs.Json.member "plan" j with
          | Some p -> Obs.Json.to_string p
          | None -> "")
      | Error _ -> ""
    in
    Alcotest.(check string) "identical provenance across runs"
      (plan_str out) (plan_str out2)
  end

(* The planners' decision counters (contraction.candidates and
   .performed, loopstruct.calls, ...) count work the calling domain
   decides, never work priced on pool workers: the whole counters
   object is identical at any --jobs, at one processor (one pricing
   domain) and at 16 (a pool). *)
let test_plan_counters_jobs () =
  if available then
    List.iter
      (fun procs ->
        let what = Printf.sprintf "-p %d" procs in
        let counters jobs =
          let code, out =
            run
              (Printf.sprintf
                 "--bench sp --plan ilp -p %d --stats json:- --jobs %d" procs
                 jobs)
          in
          Alcotest.(check int) (what ^ " exit 0") 0 code;
          match Obs.Json.of_string (String.trim out) with
          | Ok j -> (
              match Obs.Json.member "counters" j with
              | Some c -> Obs.Json.to_string c
              | None -> Alcotest.failf "%s: no counters" what)
          | Error e -> Alcotest.failf "%s: stats not valid JSON (%s)" what e
        in
        Alcotest.(check string)
          (what ^ " counters at --jobs 1 and 2")
          (counters 1) (counters 2))
      [ 1; 16 ]

(* --jobs past the runtime's domain limit: at 16 processors the search
   keeps its workers alive per block, the spawns the runtime refuses
   are skipped, and the plan is the --jobs 1 plan. *)
let test_jobs_past_domain_limit () =
  if available then begin
    let args jobs =
      Printf.sprintf
        "--bench frac --tile 16 --plan ilp -p 16 --dump-plan --jobs %d" jobs
    in
    let code1, out1 = run (args 1) in
    let code, out = run (args 200) in
    Alcotest.(check int) "--jobs 1 exit 0" 0 code1;
    Alcotest.(check int) "--jobs 200 exit 0" 0 code;
    Alcotest.(check string) "--jobs 200 plan == --jobs 1 plan" out1 out
  end

let test_bad_plan_fails () =
  if available then begin
    let code, _ = run "--bench ep --tile 16 --plan fastest" in
    Alcotest.(check bool) "bad plan rejected" true (code <> 0);
    (* the search-only mode is gone: its name is a cli error listing
       the modes there are *)
    let code, out = run "--bench ep --tile 16 --plan search" in
    Alcotest.(check int) "--plan search exits 124" 124 code;
    Alcotest.(check string) "--plan search diagnostic"
      "zapc: cli error: unknown --plan \"search\" (greedy|ilp)\n" out
  end

let test_fuzz_flag () =
  if available then begin
    let out_dir = Filename.temp_file "fuzzout" "" in
    Sys.remove out_dir;
    let code, out =
      run (Printf.sprintf "--fuzz 3 --seed 5 --fuzz-out %s" (Filename.quote out_dir))
    in
    Alcotest.(check int) "exit 0" 0 code;
    Alcotest.(check bool) "reports campaign" true
      (contains out "fuzz: 3 cases, seed 5");
    Alcotest.(check bool) "no divergences" true (contains out "0 divergences");
    (* deterministic: a second run prints the identical summary *)
    let _, out2 =
      run (Printf.sprintf "--fuzz 3 --seed 5 --fuzz-out %s" (Filename.quote out_dir))
    in
    Alcotest.(check string) "same seed, same campaign" out out2;
    if Sys.file_exists out_dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat out_dir f))
        (Sys.readdir out_dir);
      Sys.rmdir out_dir
    end
  end

let test_bad_input_fails () =
  if available then begin
    let code, _ = run "--bench nosuch" in
    Alcotest.(check bool) "nonzero exit" true (code <> 0);
    let code, _ = run "--bench ep -O warp9" in
    Alcotest.(check bool) "bad level rejected" true (code <> 0)
  end

(* A native store root that cannot be created is a one-line native
   error with exit 124, not an uncaught exception. *)
let test_unusable_tmpdir () =
  if available then begin
    let code, out =
      run ~env:[ "TMPDIR=/nonexistent/zap-tmp" ]
        "--bench frac --tile 16 --run --native"
    in
    Alcotest.(check int) "exit 124" 124 code;
    Alcotest.(check bool) "native diagnostic" true (contains out "native error");
    Alcotest.(check int) "one line" 1
      (List.length (String.split_on_char '\n' (String.trim out)))
  end

(* zapc --connect to a daemon that hangs up mid-request reports a
   connect error (exit 124) instead of dying of SIGPIPE (exit 141).
   The listener reads 16 bytes and closes; the 900 KB source, under
   the 1 MiB request cap, is still being written then. *)
let test_connect_hangup () =
  if available then begin
    let dir = Native.Build.fresh_workdir ~salt:1411 () in
    Fun.protect ~finally:(fun () -> Native.Build.remove_tree dir) @@ fun () ->
    let src = Filename.concat dir "big.zap" in
    Out_channel.with_open_bin src (fun oc ->
        Out_channel.output_string oc (String.make 900_000 ' '));
    let socket = Filename.concat dir "hangup.sock" in
    let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind listener (Unix.ADDR_UNIX socket);
    Unix.listen listener 1;
    let server =
      Domain.spawn (fun () ->
          (* a zapc that never connects fails the test instead of
             hanging it *)
          match Unix.select [ listener ] [] [] 30.0 with
          | [], _, _ -> ()
          | _ ->
              let fd, _ = Unix.accept listener in
              let buf = Bytes.create 16 in
              let rec read off =
                if off < 16 then
                  match Unix.read fd buf off (16 - off) with
                  | 0 -> ()
                  | n -> read (off + n)
              in
              read 0;
              Unix.close fd)
    in
    (* zapc must start with SIGPIPE at its default action, whatever
       this process has set *)
    let previous = Sys.signal Sys.sigpipe Sys.Signal_default in
    let code, out =
      Fun.protect
        ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous)
        (fun () ->
          run
            (Printf.sprintf "%s --connect %s" (Filename.quote src)
               (Filename.quote socket)))
    in
    Domain.join server;
    Unix.close listener;
    Alcotest.(check int) "exit 124, not killed by SIGPIPE" 124 code;
    Alcotest.(check bool) "connect diagnostic" true
      (contains out "connect error")
  end

let suites =
  [
    ( "cli",
      [
        Alcotest.test_case "compile benchmark" `Quick test_bench_compile;
        Alcotest.test_case "dump plan" `Quick test_dump_plan;
        Alcotest.test_case "run with machine model" `Quick test_run_flag;
        Alcotest.test_case "file input + dump-c" `Quick test_file_input;
        Alcotest.test_case "emit-c compiles to --run's checksum" `Quick
          test_emit_c_roundtrip;
        Alcotest.test_case "stats json report" `Quick test_stats_json;
        Alcotest.test_case "level spellings" `Quick test_level_spellings;
        Alcotest.test_case "list levels golden" `Quick test_list_levels;
        Alcotest.test_case "plan ilp stats + determinism" `Slow
          test_plan_ilp_stats;
        Alcotest.test_case "plan counters independent of --jobs" `Slow
          test_plan_counters_jobs;
        Alcotest.test_case "--jobs past the domain limit" `Slow
          test_jobs_past_domain_limit;
        Alcotest.test_case "fuzz campaign smoke" `Slow test_fuzz_flag;
        Alcotest.test_case "bad plan rejected" `Quick test_bad_plan_fails;
        Alcotest.test_case "bad input" `Quick test_bad_input_fails;
        Alcotest.test_case "unusable TMPDIR fails typed" `Quick
          test_unusable_tmpdir;
        Alcotest.test_case "connect survives a daemon hang-up" `Quick
          test_connect_hangup;
      ] );
  ]
