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

(* ------------------------------------------------------------------ *)
(* Forwarded shift and identity ops                                    *)
(* ------------------------------------------------------------------ *)

let region2 (l1, h1) (l2, h2) = Region.of_bounds [ (l1, h1); (l2, h2) ]
let sub a b = Expr.Binop (Expr.Sub, a, b)

(* perfbench's lazy-stream iteration (perfbench/lazy_stream.ml): the
   1-D three-point stencil chain over [n] points (perfbench's 65536 by
   default), its constants drawn from the seed and the iteration *)
let stream_chain ?(n = 65536) ctx ~seed t =
  let s = float_of_int (1 + (abs seed mod 1000)) /. 1000.0 in
  let ft = float_of_int t in
  let a = 1.0 +. (0.125 *. ft *. s) and b = ft +. s and c = 0.25 /. (ft +. s) in
  let src =
    T.gen ctx (region1 0 (n - 1))
      (mul (Expr.Const a) (add (Expr.Idx 1) (Expr.Const b)))
  in
  T.map
    (fun x -> mul (Expr.Const c) x)
    (T.zip_with add (T.shift [| -1 |] src) (T.shift [| 1 |] src))

(* Hand-built traces around shift and identity ops.  Each returns its
   observations in the order it makes them, as (label, checksum);
   which op a flush observes and which it only consumes depends on that
   order. *)
let hand_cases : (string * (T.ctx -> (string * string) list)) list =
  [
    ( "shift-of-shift",
      fun ctx ->
        let a = src ctx in
        (* s2[i] = a[i - 3] over [3..18] *)
        let s2 = T.shift [| -2 |] (T.shift [| -1 |] a) in
        let m = T.map (fun x -> mul (Expr.Const 2.0) x) s2 in
        let vm = T.checksum m in
        let back = T.zip_with sub (T.shift [| 3 |] s2) a in
        let vb = T.checksum back in
        [ ("map", vm); ("back", vb); ("outer", T.checksum s2) ] );
    ( "observed-and-consumed",
      fun ctx ->
        let a = src ctx in
        let s = T.shift [| 1 |] a in
        let vs = T.checksum s in
        let z = T.zip_with sub s a in
        let vz = T.checksum z in
        (* one flush observes the sink shift [l] and consumes [r] *)
        let l = T.shift [| -1 |] a in
        let r = T.shift [| 2 |] a in
        let m = T.map (fun x -> add x (Expr.Const 0.5)) r in
        T.flush ctx;
        [ ("s", vs); ("z", vz); ("l", T.checksum l); ("m", T.checksum m) ] );
    ( "reduce-over-shift",
      fun ctx ->
        let a = src ctx in
        let s = T.shift [| 3 |] a in
        let sum = T.reduce Prog.Rsum s in
        (* a region outside the source's own index range *)
        let prod = T.reduce ~region:(region1 (-3) (-1)) Prog.Rprod s in
        let mx = T.reduce Prog.Rmax (T.shift [| -2 |] s) in
        T.flush ctx;
        let one = T.reduce ~region:(region1 (-2) 0) Prog.Rmin s in
        [
          ("sum", T.scalar_checksum sum);
          ("prod", T.scalar_checksum prod);
          ("max", T.scalar_checksum mx);
          ("min", T.scalar_checksum one);
        ] );
    ( "identity-map-region",
      fun ctx ->
        let a = src ctx in
        let m = T.map ~region:(region1 2 12) (fun x -> x) a in
        let sq = T.map (fun x -> mul x x) m in
        let vsq = T.checksum sq in
        let k = T.map ~region:(region1 4 9) (fun x -> x) (T.shift [| 1 |] m) in
        let vk = T.checksum k in
        let total = T.reduce Prog.Rsum (T.map (fun x -> x) k) in
        [
          ("sq", vsq);
          ("k", vk);
          ("m", T.checksum m);
          ("total", T.scalar_checksum total);
        ] );
    ( "zip-returns-operand",
      fun ctx ->
        let a = src ctx in
        let b = T.map (fun x -> add x (Expr.Const 1.0)) a in
        let l = T.zip_with (fun x _ -> x) (T.shift [| 1 |] a) b in
        let r = T.zip_with (fun _ y -> y) a (T.shift [| -1 |] b) in
        let self = T.zip_with (fun x _ -> x) r r in
        let z = T.zip_with mul l self in
        let vz = T.checksum z in
        [ ("z", vz); ("l", T.checksum l); ("r", T.checksum r) ] );
    ( "shift-chain-2d",
      fun ctx ->
        let g =
          T.gen ctx
            (region2 (0, 7) (0, 9))
            (add (mul (Expr.Const 10.0) (Expr.Idx 1)) (Expr.Idx 2))
        in
        let s1 = T.shift [| 1; 0 |] g in
        let s2 = T.shift [| 0; -1 |] s1 in
        (* s3[i, j] = g[i, j] through three forwarded reads *)
        let s3 = T.shift [| -1; 1 |] s2 in
        let d = T.zip_with sub s3 g in
        let vd = T.checksum d in
        let w = T.zip_with (fun x y -> sub (mul (Expr.Const 2.0) x) y) s2 g in
        let vw = T.checksum w in
        let corner = T.reduce ~region:(region2 (-1, 0) (1, 2)) Prog.Rsum s2 in
        [
          ("d", vd);
          ("w", vw);
          ("corner", T.scalar_checksum corner);
          ("s1", T.checksum s1);
        ] );
  ]

(* Every case of the forced-checksum golden, as (name, checksum): 300
   generated traces forced at baseline and at c2+f3, three lazy-stream
   iterations, and the hand cases at both levels. *)
let golden_cases () =
  let levels = Compilers.Driver.[ Baseline; C2F3 ] in
  let traced =
    List.concat_map
      (fun level ->
        List.init 300 (fun i ->
            let seed = i + 1 in
            let tr =
              Fuzz.Gen.generate_traced ~level
                (Support.Prng.create (Int64.of_int seed))
            in
            let sum =
              match tr.Fuzz.Gen.sink with
              | Fuzz.Gen.Arr a -> T.checksum a
              | Fuzz.Gen.Scalar s -> T.scalar_checksum s
            in
            ( Printf.sprintf "trace.%s.%d" (Compilers.Driver.level_name level) seed,
              sum )))
      levels
  in
  let stream =
    let ctx = T.create ~name:"lazy-stream" () in
    List.init 3 (fun i ->
        let t = i + 1 in
        (Printf.sprintf "lazy-stream.%d" t, T.checksum (stream_chain ctx ~seed:1 t)))
  in
  let hand =
    List.concat_map
      (fun level ->
        List.concat_map
          (fun (case, run) ->
            List.map
              (fun (label, sum) ->
                ( Printf.sprintf "hand.%s.%s.%s" case
                    (Compilers.Driver.level_name level)
                    label,
                  sum ))
              (run (T.create ~level ())))
          hand_cases)
      levels
  in
  traced @ stream @ hand

(* test/golden/lazy_checksums.txt holds one "name checksum" line per
   case of [golden_cases], written by the lowering that still copied
   every shift into an array of its own.  Forwarding a shift reads the
   same elements where they already are, so every forced value must
   come back bit for bit.  Regenerate only for a change that means to
   move forced values. *)
let test_checksum_golden () =
  let ic = open_in_bin "golden/lazy_checksums.txt" in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let want =
    String.split_on_char '\n' want
    |> List.filter (( <> ) "")
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | [ n; c ] -> (n, c)
           | _ -> Alcotest.failf "malformed golden line %S" l)
  in
  let got = golden_cases () in
  Alcotest.(check int) "case count" (List.length want) (List.length got);
  List.iter2
    (fun (wn, wc) (gn, gc) ->
      Alcotest.(check string) "case name" wn gn;
      Alcotest.(check string) wn wc gc)
    want got

let astmts (p : Prog.t) =
  List.filter_map (function Prog.Astmt s -> Some s | _ -> None) p.Prog.body

(* What [lower_direct] allocates around shift and identity ops: an op
   whose value is a bare reference to one operand gets no array of its
   own unless the flush observes it; its readers read the first
   materialized ancestor at the summed offset. *)
let test_forwarding_structure () =
  let ctx = T.create () in
  let a = src ctx in
  let s1 = T.shift [| -1 |] a in
  let s2 = T.shift [| -2 |] s1 in
  let m = T.map (fun x -> mul (Expr.Const 2.0) x) s2 in
  let p = T.lower_direct ctx m in
  Alcotest.(check int) "shift chain: source and map only" 2
    (List.length p.Prog.arrays);
  Alcotest.(check int) "shift chain: two statements" 2
    (List.length (astmts p));
  (match astmts p with
  | [ _; last ] ->
      Alcotest.(check (list (pair string (list int))))
        "the map reads the source at the summed offset"
        [ ("a1", [ -3 ]) ]
        (List.map (fun (x, d) -> (x, Array.to_list d)) (Expr.refs last.Nstmt.rhs))
  | _ -> Alcotest.fail "expected two statements");
  (* an observed shift keeps its array; its ancestor shift does not *)
  let p = T.lower_direct ctx s2 in
  Alcotest.(check (list string)) "observed shift materialized"
    [ "a1"; "a2" ]
    (List.map (fun (x : Prog.array_info) -> x.Prog.name) p.Prog.arrays);
  Alcotest.(check (list string)) "its array is the live-out" [ "a2" ] p.Prog.live_out;
  (* identity map and operand-returning zip_with *)
  let id = T.map ~region:(region1 2 12) (fun x -> x) a in
  let z = T.zip_with (fun _ y -> y) a (T.shift [| 1 |] id) in
  let m = T.map (fun x -> add x (Expr.Const 1.0)) z in
  let p = T.lower_direct ctx m in
  Alcotest.(check int) "identity ops allocate nothing" 2 (List.length p.Prog.arrays);
  (match astmts p with
  | [ _; last ] ->
      Alcotest.(check (list (pair string (list int))))
        "read through zip, shift and identity map"
        [ ("a1", [ 1 ]) ]
        (List.map (fun (x, d) -> (x, Array.to_list d)) (Expr.refs last.Nstmt.rhs))
  | _ -> Alcotest.fail "expected two statements");
  (* a reduction over a shifted node reduces the source at the offset *)
  let sum = T.reduce Prog.Rsum (T.shift [| 3 |] a) in
  let p = T.lower_direct_scalar ctx sum in
  Alcotest.(check int) "reduction over a shift: one array" 1
    (List.length p.Prog.arrays);
  (match List.rev p.Prog.body with
  | Prog.Reduce { arg; region; _ } :: _ ->
      Alcotest.(check bool) "over the shifted region" true
        (Region.equal region (region1 (-3) 12));
      Alcotest.(check (list (pair string (list int))))
        "reading the source at the shift"
        [ ("a1", [ 3 ]) ]
        (List.map (fun (x, d) -> (x, Array.to_list d)) (Expr.refs arg))
  | _ -> Alcotest.fail "expected a trailing reduction");
  (* the lazy-stream flush: gen, the sum, the scaled sum; under c2+f3
     the sum is contracted, leaving two loops over two arrays *)
  let ctx = T.create () in
  let p = T.lower_direct ctx (stream_chain ctx ~seed:1 1) in
  Alcotest.(check int) "lazy-stream lowers three statements" 3
    (List.length (astmts p));
  let c = Compilers.Driver.compile_exn_opts Compilers.Driver.default_opts p in
  Alcotest.(check int) "lazy-stream code: two arrays" 2
    (List.length c.Compilers.Driver.code.Sir.Code.allocs);
  Alcotest.(check int) "lazy-stream code: two loops" 2
    (Sir.Code.count_loops c.Compilers.Driver.code)

(* A forwarded op still counts as lowered; the two counts of the
   stencil chain's flush (two forwarded shifts of five ops) agree
   between the stats and the Obs counters. *)
let test_forwarding_counted () =
  let r = Obs.create () in
  let st =
    Obs.run r (fun () ->
        let ctx = T.create () in
        ignore (T.force (chain ctx 1.0));
        T.stats ctx)
  in
  let counters = (Obs.report r).Obs.counters in
  let get k = try List.assoc k counters with Not_found -> 0 in
  Alcotest.(check int) "stats: lowered" 5 st.T.ops_lowered;
  Alcotest.(check int) "stats: forwarded" 2 st.T.ops_forwarded;
  Alcotest.(check int) "lazy.op.lowered" 5 (get Lazyarr.Metrics.op_lowered);
  Alcotest.(check int) "lazy.op.forwarded" 2 (get Lazyarr.Metrics.op_forwarded)

(* ------------------------------------------------------------------ *)
(* What a context holds                                                *)
(* ------------------------------------------------------------------ *)

(* An op's cone follows the operands its expression reads: a zip_with
   that returns one operand does not pull in the other, which stays a
   pending sink until an explicit flush computes it. *)
let test_cone_follows_reads () =
  let ctx = T.create () in
  let a = src ctx in
  let b = T.map (fun x -> add x (Expr.Const 1.0)) a in
  let z = T.zip_with (fun x _ -> x) (T.shift [| 1 |] a) b in
  let sq = T.map (fun x -> mul x x) z in
  Alcotest.(check int) "the source and the square only" 2
    (List.length (astmts (T.lower_direct ctx sq)));
  (* over [0..14]: a[i+1]^2 = (3i+4)^2 *)
  check_floats "sq values"
    (Array.init 15 (fun i -> float_of_int (((3 * i) + 4) * ((3 * i) + 4))))
    (T.force sq);
  let st = T.stats ctx in
  Alcotest.(check int) "one flush" 1 st.T.flushes;
  Alcotest.(check int) "source, shift, zip and square lowered" 4 st.T.ops_lowered;
  Alcotest.(check int) "shift and zip read in place" 2 st.T.ops_forwarded;
  Alcotest.(check int) "b elided" 1 st.T.ops_elided;
  T.flush ctx;
  let st = T.stats ctx in
  Alcotest.(check int) "b was a pending sink" 2 st.T.flushes;
  Alcotest.(check int) "source and b lowered" 6 st.T.ops_lowered;
  Alcotest.(check int) "elision counted once" 1 st.T.ops_elided;
  check_floats "b = 3i+2" (Array.init 16 (fun i -> float_of_int ((3 * i) + 2))) (T.force b);
  Alcotest.(check int) "b served from memo" 1 (T.stats ctx).T.memo_hits

(* A sink one flush passes over stays pending: an explicit flush
   computes it. *)
let test_flush_computes_passed_over_sink () =
  let ctx = T.create () in
  let a = src ctx in
  let b = T.map (fun x -> add x (Expr.Const 1.0)) a in
  let c = T.map (fun x -> mul x (Expr.Const 2.0)) a in
  check_floats "b = 3i+2" (Array.init 16 (fun i -> float_of_int ((3 * i) + 2))) (T.force b);
  T.flush ctx;
  let st = T.stats ctx in
  Alcotest.(check int) "the flush computed c" 2 st.T.flushes;
  Alcotest.(check int) "a and b, then a and c" 4 st.T.ops_lowered;
  Alcotest.(check int) "c elided by the first flush" 1 st.T.ops_elided;
  check_floats "c = 6i+2" (Array.init 16 (fun i -> float_of_int ((6 * i) + 2))) (T.force c);
  let st = T.stats ctx in
  Alcotest.(check int) "c served from memo" 1 st.T.memo_hits;
  Alcotest.(check int) "no third flush" 2 st.T.flushes;
  T.flush ctx;
  Alcotest.(check int) "nothing left pending" 2 (T.stats ctx).T.flushes

(* One context streams the lazy-stream chain, each handle dropped once
   forced: the context keeps no forced array and no op, so the live
   heap after the last flush is within 1 MB of the live heap after
   flush 20 (a context that kept each forced 32 KB array would grow by
   about 5.8 MB). *)
let test_stream_bounded_memory () =
  let ctx = T.create ~name:"lazy-stream" () in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let flushes = 200 and checkpoint = 20 in
  let at_checkpoint = ref 0 in
  for t = 1 to flushes do
    ignore (T.checksum (stream_chain ~n:4096 ctx ~seed:1 t));
    if t = checkpoint then at_checkpoint := live ()
  done;
  let last = live () in
  Alcotest.(check int) "one flush per iteration" flushes (T.stats ctx).T.flushes;
  let mb = (1 lsl 20) / (Sys.word_size / 8) in
  if abs (last - !at_checkpoint) > mb then
    Alcotest.failf "live words: %d after flush %d, %d after flush %d (%.1f MB apart)"
      !at_checkpoint checkpoint last flushes
      (float_of_int (abs (last - !at_checkpoint)) /. float_of_int mb)

(* ------------------------------------------------------------------ *)
(* Storage kept between flushes                                        *)
(* ------------------------------------------------------------------ *)

let reference ctx a =
  Exec.Refinterp.checksum (Exec.Refinterp.run (T.lower_direct ctx a))

(* Temporaries read through shifts past the edges of shifted regions:
   [t] covers a sub-region of the shifted source it reads, and the
   observed op reads [t] through shifts at both ends of [t]'s region,
   so the flush's program keeps [t] and the source as arrays.  Both are
   temporaries the second flush (a plan-cache hit) runs over again;
   each flush must match the reference on its direct lowering. *)
let edge_chain ctx c =
  let a =
    T.gen ctx (region1 0 63)
      (add (mul (Expr.Const c) (Expr.Idx 1)) (Expr.Const 1.0))
  in
  let t =
    T.map ~region:(region1 5 60)
      (fun x -> add (mul x (Expr.Const (c +. 0.5))) (Expr.Const 1.0))
      (T.shift [| -3 |] a)
  in
  T.zip_with ~region:(region1 6 50)
    (fun x y -> Expr.Binop (Expr.Sub, x, mul y (Expr.Const (c -. 2.0))))
    (T.shift [| 4 |] t) (T.shift [| -1 |] t)

let test_temporaries_reused () =
  let ctx = T.create () in
  let code =
    (Compilers.Driver.compile_exn_opts Compilers.Driver.default_opts
       (T.lower_direct ctx (edge_chain ctx 1.0)))
      .Compilers.Driver.code
  in
  Alcotest.(check int) "two temporaries beside the observed array" 3
    (List.length code.Sir.Code.allocs);
  List.iter
    (fun c ->
      let w = edge_chain ctx c in
      Alcotest.(check string)
        (Printf.sprintf "flush with c = %g" c)
        (reference ctx w) (T.checksum w))
    [ 3.0; -1.25; 3.0 ];
  let st = T.stats ctx in
  Alcotest.(check int) "one shape, one compile" 1 st.T.compiles_computed;
  Alcotest.(check int) "later flushes hit the plan cache" 2 st.T.cache_hits

(* An observed array is the node's memo, so the next flush of the same
   shape must not run over it. *)
let test_forced_array_kept () =
  let ctx = T.create () in
  let x = chain ctx 1.0 in
  let sum = T.checksum x and values = T.force x in
  let y = chain ctx 7.0 in
  ignore (T.checksum y);
  Alcotest.(check int) "second flush hits the plan cache" 1
    (T.stats ctx).T.cache_hits;
  Alcotest.(check string) "checksum after the next flush" sum (T.checksum x);
  check_floats "values after the next flush" values (T.force x);
  Alcotest.(check bool) "the two flushes differ" true (T.checksum y <> sum)

(* Two contexts on two domains, one engine: each flushes one shape [k]
   times with its own constants, starting together.  Storage shared
   between the contexts would mix their values. *)
let test_contexts_on_domains_keep_own_storage () =
  let engine = Service.Engine.create ~jobs:1 () in
  let k = 50 and arrived = Atomic.make 0 in
  let run base () =
    let ctx = T.create ~engine () in
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    let flushed =
      List.init k (fun i ->
          let a = stream_chain ~n:4096 ctx ~seed:base (i + 1) in
          (a, T.checksum a))
    in
    (ctx, flushed)
  in
  let other = Domain.spawn (run 2) in
  let mine = run 1 () in
  let theirs = Domain.join other in
  List.iter
    (fun (who, (ctx, flushed)) ->
      Alcotest.(check int) (who ^ ": one flush per checksum") k
        (T.stats ctx).T.flushes;
      List.iteri
        (fun i (a, sum) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: flush %d" who (i + 1))
            (reference ctx a) sum)
        flushed)
    [ ("mine", mine); ("theirs", theirs) ]

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
    ( "lazy-forward",
      [
        Alcotest.test_case "forced checksums match the golden" `Quick
          test_checksum_golden;
        Alcotest.test_case "shift and identity ops are read in place" `Quick
          test_forwarding_structure;
        Alcotest.test_case "forwarded ops are counted" `Quick
          test_forwarding_counted;
      ] );
    ( "lazy-context",
      [
        Alcotest.test_case "cone follows the operands an op reads" `Quick
          test_cone_follows_reads;
        Alcotest.test_case "flush computes a passed-over sink" `Quick
          test_flush_computes_passed_over_sink;
        Alcotest.test_case "one context streams in bounded memory" `Quick
          test_stream_bounded_memory;
      ] );
    ( "lazy-storage",
      [
        Alcotest.test_case "temporaries read past shifted regions" `Quick
          test_temporaries_reused;
        Alcotest.test_case "a forced array survives the next flush" `Quick
          test_forced_array_kept;
        Alcotest.test_case "contexts on two domains keep their own" `Quick
          test_contexts_on_domains_keep_own_storage;
      ] );
  ]
