(* The lazy array-expression frontend (lib/lazy): flush boundaries,
   dead-op elision, memoization, record-time shape errors, trace-shape
   plan-cache reuse, and the differential property that forcing any
   random trace matches the eager reference interpreter on the trace's
   direct lowering. *)

open Ir
module T = Lazyarr.Trace

let region1 lo hi = Region.of_bounds [ (lo, hi) ]

let add a b = Expr.Binop (Expr.Add, a, b)
let mul a b = Expr.Binop (Expr.Mul, a, b)

(* source over [0..15]: element i = 3i + c *)
let src ?(c = 1.0) ctx =
  T.gen ctx (region1 0 15) (add (mul (Expr.Const 3.0) (Expr.Idx 1)) (Expr.Const c))

let check_floats name want got =
  Alcotest.(check (list (float 1e-9))) name (Array.to_list want) (Array.to_list got)

(* ------------------------------------------------------------------ *)
(* Values and flush boundaries                                         *)
(* ------------------------------------------------------------------ *)

let test_force_values () =
  let ctx = T.create () in
  let a = src ctx in
  let b = T.map (fun x -> mul (Expr.Const 2.0) x) a in
  let v = T.force b in
  check_floats "2*(3i+1) over [0..15]" (Array.init 16 (fun i -> float_of_int ((6 * i) + 2))) v;
  let st = T.stats ctx in
  Alcotest.(check int) "one flush" 1 st.T.flushes;
  Alcotest.(check int) "both ops lowered" 2 st.T.ops_lowered

let test_observation_order_and_recompute () =
  (* two siblings off one source: forcing one elides the other;
     forcing the other later recomputes the (contracted) source *)
  let ctx = T.create () in
  let a = src ctx in
  let b = T.map (fun x -> add x (Expr.Const 1.0)) a in
  let c = T.map (fun x -> mul x (Expr.Const 2.0)) a in
  let vb = T.force b in
  let st1 = T.stats ctx in
  Alcotest.(check int) "first flush lowers src+b" 2 st1.T.ops_lowered;
  Alcotest.(check int) "sibling c elided" 1 st1.T.ops_elided;
  let vc = T.force c in
  let st2 = T.stats ctx in
  Alcotest.(check int) "two flushes" 2 st2.T.flushes;
  Alcotest.(check int) "src re-lowered for c" 4 st2.T.ops_lowered;
  Alcotest.(check int) "elision counted once" 1 st2.T.ops_elided;
  check_floats "b = 3i+2" (Array.init 16 (fun i -> float_of_int ((3 * i) + 2))) vb;
  check_floats "c = 6i+2" (Array.init 16 (fun i -> float_of_int ((6 * i) + 2))) vc

let test_memoized_reforce () =
  let ctx = T.create () in
  let b = T.map (fun x -> add x (Expr.Const 1.0)) (src ctx) in
  let v1 = T.force b in
  let want = Array.copy v1 in
  (* the memo is private: scribbling on a forced array changes nothing *)
  Array.fill v1 0 (Array.length v1) nan;
  let flushes_before = (T.stats ctx).T.flushes in
  let v2 = T.force b in
  let _ = T.checksum b in
  let st = T.stats ctx in
  Alcotest.(check int) "no new flush" flushes_before st.T.flushes;
  Alcotest.(check int) "memo hits" 2 st.T.memo_hits;
  check_floats "same values" want v2

let test_explicit_flush_batches_sinks () =
  (* two independent sinks + a pending reduction materialize in ONE
     multi-output program; later forces are all memo hits *)
  let ctx = T.create () in
  let a = src ctx in
  let b = T.map (fun x -> add x (Expr.Const 1.0)) a in
  let c = T.map (fun x -> mul x (Expr.Const 2.0)) a in
  let s = T.reduce Prog.Rsum a in
  T.flush ctx;
  let st = T.stats ctx in
  Alcotest.(check int) "one batched flush" 1 st.T.flushes;
  (* a, b, c, reduce — a is consumed, so not a sink, but it is in the cone *)
  Alcotest.(check int) "whole trace lowered once" 4 st.T.ops_lowered;
  ignore (T.force b);
  ignore (T.force c);
  ignore (T.force_scalar s);
  let st = T.stats ctx in
  Alcotest.(check int) "forces served from memo" 3 st.T.memo_hits;
  Alcotest.(check int) "still one flush" 1 st.T.flushes;
  (* sum of 3i+1 over [0..15] = 3*120 + 16 *)
  Alcotest.(check (float 1e-9)) "reduction value" 376.0 (T.force_scalar s);
  T.flush ctx;
  Alcotest.(check int) "flush with nothing pending is a no-op" 1
    (T.stats ctx).T.flushes

let test_interleaved_record_and_observe () =
  (* growing the trace after a flush re-enters cleanly: the new op
     consumes a materialized node and recomputes it *)
  let ctx = T.create () in
  let a = src ctx in
  let va = T.force a in
  let b = T.map (fun x -> mul x x) a in
  let vb = T.force b in
  check_floats "b = a^2"
    (Array.map (fun x -> x *. x) va)
    vb;
  Alcotest.(check int) "two flushes" 2 (T.stats ctx).T.flushes

let test_shift_and_zip_regions () =
  let ctx = T.create () in
  let a = src ctx in
  let l = T.shift [| -1 |] a in
  let r = T.shift [| 1 |] a in
  Alcotest.(check bool) "shift -1 region" true
    (Region.equal (T.region_of l) (region1 1 16));
  Alcotest.(check bool) "shift +1 region" true
    (Region.equal (T.region_of r) (region1 (-1) 14));
  let z = T.zip_with add l r in
  Alcotest.(check bool) "zip region is the intersection" true
    (Region.equal (T.region_of z) (region1 1 14));
  (* a[i-1] + a[i+1] = (3(i-1)+1) + (3(i+1)+1) = 6i+2 *)
  check_floats "stencil values"
    (Array.init 14 (fun k -> float_of_int ((6 * (k + 1)) + 2)))
    (T.force z)

(* ------------------------------------------------------------------ *)
(* Shape errors at the offending op                                    *)
(* ------------------------------------------------------------------ *)

let shape_error name f =
  match f () with
  | exception T.Shape_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Shape_error" name

let test_shape_errors () =
  let ctx = T.create () in
  let a = src ctx in
  shape_error "gen with array ref" (fun () ->
      T.gen ctx (region1 0 3) (Expr.Ref ("A", [| 0 |])));
  shape_error "gen with scalar var" (fun () ->
      T.gen ctx (region1 0 3) (Expr.Svar "k"));
  shape_error "gen empty region" (fun () ->
      T.gen ctx (Region.of_bounds [ (3, 2) ]) (Expr.Const 1.0));
  shape_error "gen idx out of rank" (fun () ->
      T.gen ctx (region1 0 3) (Expr.Idx 2));
  shape_error "map region escapes operand" (fun () ->
      T.map ~region:(region1 0 16) (fun x -> x) a);
  shape_error "zip of disjoint regions" (fun () ->
      let b = T.gen ctx (region1 100 110) (Expr.Const 0.0) in
      T.zip_with add a b);
  shape_error "zip across contexts" (fun () ->
      let other = T.create () in
      T.zip_with add a (src other));
  shape_error "shift rank mismatch" (fun () -> T.shift [| 1; 0 |] a);
  shape_error "reduce region escapes operand" (fun () ->
      T.reduce ~region:(region1 0 99) Prog.Rsum a);
  (* the trace survives its rejected ops *)
  Alcotest.(check int) "valid prefix still forces" 16
    (Array.length (T.force a))

(* ------------------------------------------------------------------ *)
(* Trace-shape plan-cache reuse                                        *)
(* ------------------------------------------------------------------ *)

let chain ctx c =
  let a = src ~c ctx in
  let l = T.shift [| -1 |] a in
  let r = T.shift [| 1 |] a in
  T.map (fun x -> mul (Expr.Const (c +. 2.0)) x) (T.zip_with add l r)

let test_shape_reuse () =
  let ctx = T.create () in
  ignore (T.force (chain ctx 1.0));
  let st1 = T.stats ctx in
  let fp1 = st1.T.last_fingerprint in
  ignore (T.force (chain ctx 42.5));
  let st2 = T.stats ctx in
  Alcotest.(check bool) "fingerprint is shape-stable" true
    (fp1 <> None && fp1 = st2.T.last_fingerprint);
  Alcotest.(check int) "second flush hits the plan cache" 1 st2.T.cache_hits;
  Alcotest.(check int) "one compile for two flushes" 1 st2.T.compiles_computed;
  Alcotest.(check int) "constants lifted per flush" 6 st2.T.params_lifted;
  (* a different shape must re-key *)
  ignore (T.force (T.map (fun x -> x) (chain ctx 1.0)));
  let st3 = T.stats ctx in
  Alcotest.(check bool) "different shape, different fingerprint" true
    (st3.T.last_fingerprint <> fp1);
  Alcotest.(check int) "different shape misses" 2 st3.T.cache_misses

let test_shared_engine () =
  (* contexts sharing one engine share its plan cache *)
  let engine = Service.Engine.create ~jobs:1 () in
  let ctx1 = T.create ~engine () in
  let ctx2 = T.create ~engine () in
  ignore (T.force (chain ctx1 2.0));
  ignore (T.force (chain ctx2 3.0));
  Alcotest.(check int) "second context hits the shared cache" 1
    (T.stats ctx2).T.cache_hits;
  Alcotest.(check int) "no second compile"
    0 (T.stats ctx2).T.compiles_computed

(* Two domains, each flushing one trace shape [k] times through its
   own context on one shared engine, starting together so their first
   flushes race: each context counts exactly its own lookups, and one
   compile serves both. *)
let test_shared_engine_domains () =
  let engine = Service.Engine.create ~jobs:1 () in
  let k = 25 in
  let arrived = Atomic.make 0 in
  let run () =
    let ctx = T.create ~engine () in
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    for i = 1 to k do
      ignore (T.force (chain ctx (float_of_int i)))
    done;
    T.stats ctx
  in
  let other = Domain.spawn run in
  let mine = run () in
  let theirs = Domain.join other in
  List.iter
    (fun (st : T.stats) ->
      Alcotest.(check int) "one flush per force" k st.T.flushes;
      Alcotest.(check int) "hits + misses = own flushes" st.T.flushes
        (st.T.cache_hits + st.T.cache_misses))
    [ mine; theirs ];
  Alcotest.(check int) "one compile across both contexts" 1
    (mine.T.compiles_computed + theirs.T.compiles_computed);
  Alcotest.(check int) "one compile in the engine" 1
    (Service.Engine.server_stats engine).Service.Api.compiles_computed

(* ------------------------------------------------------------------ *)
(* Obs metrics                                                         *)
(* ------------------------------------------------------------------ *)

let test_metrics_keys () =
  let all = Lazyarr.Metrics.all in
  Alcotest.(check int)
    "every key is distinct"
    (List.length all)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (k ^ " carries the lazy prefix")
        true
        (String.length k > String.length Lazyarr.Metrics.prefix
        && String.sub k 0 (String.length Lazyarr.Metrics.prefix)
           = Lazyarr.Metrics.prefix))
    all;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (k ^ " is disjoint from the service keys")
        false
        (List.mem k Service.Metrics.all))
    all

let test_obs_counters () =
  let r = Obs.create () in
  Obs.run r (fun () ->
      let ctx = T.create () in
      let a = src ctx in
      let b = T.map (fun x -> add x (Expr.Const 1.0)) a in
      ignore (T.force b);
      ignore (T.force b));
  let counters = (Obs.report r).Obs.counters in
  let get k = try List.assoc k counters with Not_found -> 0 in
  Alcotest.(check int) "lazy.flush" 1 (get Lazyarr.Metrics.flush);
  Alcotest.(check int) "lazy.op.recorded" 2 (get Lazyarr.Metrics.op_recorded);
  Alcotest.(check int) "lazy.op.lowered" 2 (get Lazyarr.Metrics.op_lowered);
  Alcotest.(check int) "lazy.force" 2 (get Lazyarr.Metrics.force);
  Alcotest.(check int) "lazy.force.memo" 1 (get Lazyarr.Metrics.force_memo);
  Alcotest.(check int) "lazy.param.lifted" 3 (get Lazyarr.Metrics.param_lifted)

(* ------------------------------------------------------------------ *)
(* Differential property: lazy force == eager reference               *)
(* ------------------------------------------------------------------ *)

let prop_lazy_matches_reference level =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "lazy force == refinterp on direct lowering @ %s"
         (Compilers.Driver.level_name level))
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Support.Prng.create (Int64.of_int (seed + 7)) in
      let tr = Fuzz.Gen.generate_traced ~level rng in
      let want =
        Exec.Refinterp.checksum (Exec.Refinterp.run tr.Fuzz.Gen.trace_prog)
      in
      let got =
        match tr.Fuzz.Gen.sink with
        | Fuzz.Gen.Arr a -> T.checksum a
        | Fuzz.Gen.Scalar s -> T.scalar_checksum s
      in
      if String.equal want got then true
      else
        QCheck.Test.fail_reportf "level %s: want %s got %s@.%a"
          (Compilers.Driver.level_name level)
          want got Prog.pp tr.Fuzz.Gen.trace_prog)

let test_traced_deterministic () =
  let prog_of seed =
    Fuzz.Gen.generate_trace (Support.Prng.create (Int64.of_int seed))
  in
  Alcotest.(check string)
    "same seed, same lowered trace"
    (Prog.fingerprint (prog_of 11))
    (Prog.fingerprint (prog_of 11));
  Alcotest.(check bool)
    "trace-mode campaign runs green" true
    (Fuzz.Campaign.divergent
       (Fuzz.Campaign.run
          ~cfg:
            {
              Fuzz.Oracle.default with
              Fuzz.Oracle.levels =
                [ Compilers.Driver.Baseline; Compilers.Driver.C2F3 ];
              planner = false;
              spmd_procs = [];
              native = false;
            }
          ~trace:true ~n:6 ~seed:5L ())
    = [])

let suites =
  [
    ( "lazy-flush",
      [
        Alcotest.test_case "force computes values" `Quick test_force_values;
        Alcotest.test_case "observation order + recompute" `Quick
          test_observation_order_and_recompute;
        Alcotest.test_case "re-force is memoized" `Quick test_memoized_reforce;
        Alcotest.test_case "explicit flush batches all sinks" `Quick
          test_explicit_flush_batches_sinks;
        Alcotest.test_case "interleaved record/observe" `Quick
          test_interleaved_record_and_observe;
        Alcotest.test_case "shift/zip region algebra" `Quick
          test_shift_and_zip_regions;
      ] );
    ( "lazy-shape",
      [ Alcotest.test_case "errors at the offending op" `Quick test_shape_errors ]
    );
    ( "lazy-cache",
      [
        Alcotest.test_case "repeated shape reuses the plan" `Quick
          test_shape_reuse;
        Alcotest.test_case "contexts share an engine's cache" `Quick
          test_shared_engine;
        Alcotest.test_case "contexts on two domains count their own" `Quick
          test_shared_engine_domains;
      ] );
    ( "lazy-metrics",
      [
        Alcotest.test_case "key hygiene" `Quick test_metrics_keys;
        Alcotest.test_case "counters under a recorder" `Quick test_obs_counters;
      ] );
    ( "lazy-differential",
      [
        QCheck_alcotest.to_alcotest
          (prop_lazy_matches_reference Compilers.Driver.Baseline);
        QCheck_alcotest.to_alcotest
          (prop_lazy_matches_reference Compilers.Driver.C2F3);
        Alcotest.test_case "trace generation deterministic + campaign" `Quick
          test_traced_deterministic;
      ] );
  ]
