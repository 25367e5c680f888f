(* Tests of the benchmark's own code: percentile selection, coverage
   arithmetic, failed-operation accounting, and a seconds-long smoke run
   of each workload (and of the traced breakdown) on small inputs. *)

open Perfbench

let floats = List.map float_of_int

let test_rank () =
  Alcotest.(check int) "median of 10" 5 (Stats.rank ~n:10 50);
  Alcotest.(check int) "one sample" 1 (Stats.rank ~n:1 95);
  Alcotest.(check int) "p95 of 200" 190 (Stats.rank ~n:200 95);
  Alcotest.(check int) "p100 is the maximum" 7 (Stats.rank ~n:7 100);
  Alcotest.(check (float 0.0)) "nearest rank, not interpolated" 5.0
    (Stats.percentile (floats [ 10; 9; 8; 7; 6; 5; 4; 3; 2; 1 ]) 50);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.rank: no samples")
    (fun () -> ignore (Stats.rank ~n:0 50))

let test_tail_rule () =
  let t n = Stats.tail_percentile n in
  Alcotest.(check (option int)) "200 samples reach p95" (Some 95) (t 200);
  Alcotest.(check (option int)) "199 samples stop at p94" (Some 94) (t 199);
  Alcotest.(check (option int)) "20 samples: only the median" (Some 50) (t 20);
  Alcotest.(check (option int)) "19 samples: none" None (t 19);
  (* every answer leaves at least ten samples beyond, and one percentile
     more would not *)
  for n = 20 to 400 do
    match t n with
    | None -> Alcotest.fail "a percentile exists from 20 samples on"
    | Some p ->
        Alcotest.(check bool) "ten beyond" true (n - Stats.rank ~n p >= 10);
        if p < 95 then
          Alcotest.(check bool) "highest" true (n - Stats.rank ~n (p + 1) < 10)
  done;
  let s = Stats.summarize (floats (List.init 1000 (fun i -> 1000 - i))) in
  Alcotest.(check (float 0.0)) "p50 of 1..1000" 500.0 s.Stats.p50;
  Alcotest.(check (float 0.0)) "p95 of 1..1000" 950.0 s.Stats.tail;
  let s = Stats.summarize (floats [ 3; 1; 2 ]) in
  Alcotest.(check int) "too few: the maximum" 100 s.Stats.tail_pct;
  Alcotest.(check (float 0.0)) "maximum" 3.0 s.Stats.tail

let test_coverage () =
  Alcotest.(check (float 1e-12)) "stages sum to the total" 1.0
    (Stats.coverage ~stages:[ 1.0; 2.0; 1.0 ] ~total:4.0);
  Alcotest.(check (float 1e-12)) "a missing stage shows" 0.75
    (Stats.coverage ~stages:[ 1.0; 2.0 ] ~total:4.0);
  Alcotest.check_raises "empty total"
    (Invalid_argument "Stats.coverage: total must be positive") (fun () ->
      ignore (Stats.coverage ~stages:[ 1.0 ] ~total:0.0))

let test_tally () =
  let t = Stats.tally () in
  Stats.record t ~ok:true "";
  Stats.record t ~ok:false "bad";
  let u = Stats.tally () in
  Stats.record u ~ok:false "worse";
  Stats.merge_into t u;
  Alcotest.(check int) "attempted" 3 t.Stats.attempted;
  Alcotest.(check int) "failed" 2 t.Stats.failed;
  Alcotest.(check (list string)) "failures" [ "worse"; "bad" ] t.Stats.failures

(* ------------------------------------------------------------------ *)
(* Smoke runs on small inputs                                          *)
(* ------------------------------------------------------------------ *)

let workdir = "_selftest"

let () = if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755

let serve_cfg () =
  {
    Serve_warm.zapd = Filename.concat ".." (Filename.concat "bin" "zapd.exe");
    workdir;
    benches = List.filter_map Suite.by_name [ "ep"; "frac" ];
    tile = Some 16;
  }

let plan_cfg = { Plan_cold.benches = [ "frac" ]; tile = Some 16 }
let lazy_cfg = { Lazy_stream.n = 1024 }

let names (r : Report.t) = List.map (fun (m : Report.metric) -> m.Report.name) r.Report.metrics

let end_to_end = [ "setup_s"; "mean_ms"; "tail_ms"; "model_ns" ]

let check_run what (r : Report.t) =
  Alcotest.(check (list string)) (what ^ " failures") [] r.Report.tally.Stats.failures;
  Alcotest.(check (list string)) (what ^ " metrics") end_to_end (names r);
  List.iter
    (fun (m : Report.metric) ->
      Alcotest.(check bool) (what ^ " " ^ m.Report.name ^ " > 0") true (m.Report.value > 0.0))
    r.Report.metrics

(* On inputs this small a request takes about a millisecond and timer
   noise decides the stage-coverage gate, so the smoke tests ignore it. *)
let coverage_gate m = Astring.String.is_prefix ~affix:"stage coverage" m

(* A wrong reference checksum is a failed operation on every Run of
   that benchmark (over the socket and in the replay), and a failed
   run. *)
let test_forced_mismatch () =
  let cfg = serve_cfg () in
  let refs =
    List.map
      (fun (name, (r : Serve_warm.reference)) ->
        if name = "frac" then (name, { r with Serve_warm.checksum = "0000000000000000" })
        else (name, r))
      (Serve_warm.references cfg)
  in
  let t, _ = Serve_warm.layers cfg ~refs ~seed:1 ~seconds:0.0 ~min_rounds:1 in
  Alcotest.(check bool) "some operations failed" true (t.Stats.failed > 0);
  Alcotest.(check bool) "fewer failed than attempted" true
    (t.Stats.failed < t.Stats.attempted);
  List.iter
    (fun m ->
      Alcotest.(check bool) ("only frac Runs fail: " ^ m) true
        (Astring.String.is_infix ~affix:"frac run" m
        || Astring.String.is_infix ~affix:"frac replay" m))
    (List.filter (fun m -> not (coverage_gate m)) t.Stats.failures);
  Alcotest.(check (list int)) "no child left" [] !Proc_guard.live

let test_plan_smoke () =
  check_run "plan-cold"
    (Plan_cold.measure plan_cfg ~seed:1 ~seconds:1.0 ~setup_reps:2)

let test_lazy_smoke () =
  check_run "lazy-stream"
    (Lazy_stream.measure lazy_cfg ~seed:1 ~seconds:1.0 ~setup_reps:2)

(* The breakdown runs and reports every stage. *)
let test_layers_smoke () =
  let cfg = serve_cfg () in
  let st, serve =
    Serve_warm.layers cfg ~refs:(Serve_warm.references cfg) ~seed:2
      ~seconds:1.0 ~min_rounds:2
  in
  let pt, plan = Plan_cold.layers plan_cfg ~seed:2 ~seconds:0.0 in
  let lt, lz = Lazy_stream.layers lazy_cfg ~seed:2 ~seconds:0.5 ~min_rounds:2 in
  List.iter
    (fun (what, t) ->
      Alcotest.(check (list string)) (what ^ " failures") []
        (List.filter (fun m -> not (coverage_gate m)) t.Stats.failures))
    [ ("serve", st); ("plan", pt); ("lazy", lt) ];
  let all = List.map (fun (m : Report.metric) -> m.Report.name) (serve @ plan @ lz) in
  List.iter
    (fun n -> Alcotest.(check bool) ("reports " ^ n) true (List.mem n all))
    [
      "engine.handle_run_ms"; "server.wait_ms"; "interp.run_ms"; "cachesim.trace_ms";
      "stage.coverage_run"; "plan.handle_s.frac"; "plan.ilp_ms"; "plan.search_generated";
      "lazy.execute_ms"; "lazy.hit_rate";
    ];
  Alcotest.(check (list int)) "no child left" [] !Proc_guard.live

(* Without a C compiler the zapd path runs no native stage, and the
   coverage of a Run is taken over the stages that did run. *)
let test_layers_without_cc () =
  let cfg = serve_cfg () in
  let t, serve =
    Serve_warm.layers ~native:false cfg ~refs:(Serve_warm.references cfg)
      ~seed:3 ~seconds:0.0 ~min_rounds:1
  in
  Alcotest.(check (list string)) "failures" []
    (List.filter (fun m -> not (coverage_gate m)) t.Stats.failures);
  let value n =
    (List.find (fun (m : Report.metric) -> m.Report.name = n) serve).Report.value
  in
  Alcotest.(check (float 0.0)) "no native run" 0.0 (value "native.run_exe_ms");
  Alcotest.(check bool) "run coverage measured" true (value "stage.coverage_run" > 0.0);
  Alcotest.(check (list int)) "no child left" [] !Proc_guard.live

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "coverage" `Quick test_coverage;
          Alcotest.test_case "tally" `Quick test_tally;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "forced checksum mismatch" `Quick test_forced_mismatch;
          Alcotest.test_case "plan-cold" `Quick test_plan_smoke;
          Alcotest.test_case "lazy-stream" `Quick test_lazy_smoke;
          Alcotest.test_case "per-layer breakdown" `Quick test_layers_smoke;
          Alcotest.test_case "breakdown without cc" `Quick test_layers_without_cc;
        ] );
    ]
