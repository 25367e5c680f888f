(* The fuzzing subsystem, and the NaN-semantics fixes it flushed out:
   the generator's programs always validate and are deterministic in
   the seed, repros round-trip, the corpus replays green through the
   full differential oracle, the shrinker preserves the property it
   is given, and Min/Max/digest handle NaN identically everywhere. *)

open Ir

let nan_check name v = Alcotest.(check bool) name true (v <> v)

(* ------------------------------------------------------------------ *)
(* Min/Max NaN semantics (the satellite bugfix)                        *)
(* ------------------------------------------------------------------ *)

let test_minmax_nan () =
  let nan = 0.0 /. 0.0 in
  nan_check "fmin nan l" (Expr.fmin nan 1.0);
  nan_check "fmin nan r" (Expr.fmin 1.0 nan);
  nan_check "fmax nan l" (Expr.fmax nan 1.0);
  nan_check "fmax nan r" (Expr.fmax 1.0 nan);
  (* the original report: 0/0 pushed through min dropped the NaN on
     some executors *)
  nan_check "0/0 through min" (Expr.apply_binop Expr.Min (0.0 /. 0.0) 5.0);
  nan_check "0/0 through max" (Expr.apply_binop Expr.Max 5.0 (0.0 /. 0.0));
  Alcotest.(check (float 0.0)) "fmin finite" 2.0 (Expr.fmin 3.0 2.0);
  Alcotest.(check (float 0.0)) "fmax finite" 3.0 (Expr.fmax 3.0 2.0)

(* ties are resolved left-biased, so -0.0 vs 0.0 is deterministic in
   every executor (1/x distinguishes the zeros) *)
let test_minmax_signed_zero () =
  Alcotest.(check (float 0.0))
    "fmin -0. 0." neg_infinity
    (1.0 /. Expr.fmin (-0.0) 0.0);
  Alcotest.(check (float 0.0))
    "fmax -0. 0." neg_infinity
    (1.0 /. Expr.fmax (-0.0) 0.0)

let test_digest_nan_canonical () =
  let hex v = Exec.Interp.Digest.(to_hex (mix empty v)) in
  let quiet = Float.nan in
  let negpayload = Int64.float_of_bits 0xFFF8000000000001L in
  Alcotest.(check string) "payloads collapse" (hex quiet) (hex (0.0 /. 0.0));
  Alcotest.(check string) "sign collapses" (hex quiet) (hex negpayload);
  Alcotest.(check bool) "nan <> 1.0 digest" false (hex quiet = hex 1.0);
  Alcotest.(check bool) "zeros stay distinct" false (hex 0.0 = hex (-0.0))

(* ------------------------------------------------------------------ *)
(* Scalar-context guards (the satellite bugfix)                        *)
(* ------------------------------------------------------------------ *)

let mk_prog ?(arrays = []) body live_out =
  {
    Prog.name = "t";
    arrays;
    scalars = [ ("s", 0.0); ("u", 0.0) ];
    body;
    live_out;
  }

let rank1_a =
  {
    Prog.name = "A";
    bounds = Region.of_bounds [ (0, 9) ];
    kind = Prog.User;
  }

let expect_runtime_error name p =
  match Exec.Refinterp.run p with
  | _ -> Alcotest.failf "%s: expected Runtime_error" name
  | exception Exec.Refinterp.Runtime_error _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Runtime_error, got %s" name
        (Printexc.to_string e)

let test_refinterp_scalar_context () =
  (* ill-formed on purpose: bypasses validate to check the engine
     guard raises Runtime_error, not a raw Invalid_argument *)
  expect_runtime_error "idx in scalar context"
    (mk_prog [ Prog.Sassign ("s", Expr.Idx 1) ] [ "s" ]);
  expect_runtime_error "ref in scalar context"
    (mk_prog ~arrays:[ rank1_a ]
       [ Prog.Sassign ("s", Expr.Ref ("A", Support.Vec.of_list [ 0 ])) ]
       [ "s" ])

let reject name p =
  match Prog.validate p with
  | Ok () -> Alcotest.failf "%s: expected validate to reject" name
  | Error _ -> ()

let test_validate_rejects () =
  reject "scalar assignment reads idx"
    (mk_prog [ Prog.Sassign ("s", Expr.Idx 1) ] [ "s" ]);
  reject "scalar assignment reads array"
    (mk_prog ~arrays:[ rank1_a ]
       [ Prog.Sassign ("s", Expr.Ref ("A", Support.Vec.of_list [ 0 ])) ]
       [ "s" ]);
  (* the self-accumulating reduction the fuzzer found: executors
     disagree on what the self-read sees, so it is ill-formed *)
  reject "reduction reads its own target"
    (mk_prog
       [
         Prog.Reduce
           {
             target = "u";
             op = Prog.Rprod;
             region = Region.of_bounds [ (1, 8) ];
             arg = Expr.Svar "u";
           };
       ]
       [ "u" ]);
  reject "reduction arg of mismatched rank"
    (mk_prog
       [
         Prog.Reduce
           {
             target = "s";
             op = Prog.Rsum;
             region = Region.of_bounds [ (1, 8) ];
             arg = Expr.Idx 2;
           };
       ]
       [ "s" ])

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_gen_validates () =
  for seed = 1 to 25 do
    let rng = Support.Prng.create (Int64.of_int seed) in
    let p = Fuzz.Gen.generate rng in
    match Prog.validate p with
    | Ok () -> ()
    | Error m -> Alcotest.failf "seed %d: invalid program: %s" seed m
  done

let test_gen_deterministic () =
  let text seed =
    let rng = Support.Prng.create seed in
    Fuzz.Repro.to_string (Fuzz.Gen.generate rng)
  in
  Alcotest.(check string) "same seed, same program" (text 42L) (text 42L);
  Alcotest.(check bool)
    "different seeds, different programs" false
    (text 1L = text 2L)

(* ------------------------------------------------------------------ *)
(* Repro round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let prop_repro_roundtrip =
  QCheck.Test.make ~name:"repro text round-trips" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Support.Prng.create (Int64.of_int (seed + 1)) in
      let p = Fuzz.Gen.generate rng in
      let text = Fuzz.Repro.to_string ~comment:"roundtrip" p in
      match Fuzz.Repro.of_string text with
      | Error m -> QCheck.Test.fail_reportf "parse failed: %s@.%s" m text
      | Ok p' -> String.equal text (Fuzz.Repro.to_string ~comment:"roundtrip" p'))

(* The NaN min/max return has the bits of the emitted C's NAN, whatever
   NaN came in: [Hashrand] hashes the bit pattern, so OCaml's
   [Float.nan] (0x7FF8000000000001) made native and interpreter
   disagree on generated seed 15009.  The repro format's "nan" atom
   reads as the same value. *)
let test_minmax_nan_bits () =
  let bits what f =
    Alcotest.(check int64) what 0x7FF8000000000000L (Int64.bits_of_float f)
  in
  List.iter
    (fun (name, nan) ->
      bits ("fmin " ^ name ^ " l") (Expr.fmin nan 1.0);
      bits ("fmin " ^ name ^ " r") (Expr.fmin 1.0 nan);
      bits ("fmax " ^ name ^ " l") (Expr.fmax nan 1.0);
      bits ("fmax " ^ name ^ " r") (Expr.fmax 1.0 nan))
    [
      ("Float.nan", Float.nan);
      ("0/0", 0.0 /. 0.0);
      ("negative payload", Int64.float_of_bits 0xFFF8000000000001L);
    ];
  bits "Expr.nan" Expr.nan;
  let text =
    Fuzz.Repro.to_string
      (mk_prog ~arrays:[ rank1_a ]
         [
           Prog.Astmt
             (Nstmt.make
                ~region:(Region.of_bounds [ (1, 8) ])
                ~lhs:"A" (Expr.Const Float.nan));
         ]
         [ "A" ])
  in
  match Fuzz.Repro.of_string text with
  | Ok { Prog.body = [ Prog.Astmt { rhs = Expr.Const f; _ } ]; _ } ->
      bits "repro nan atom" f
  | Ok _ -> Alcotest.fail "unexpected repro shape"
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_repro_special_floats () =
  let p =
    mk_prog ~arrays:[ rank1_a ]
      [
        Prog.Astmt
          (Nstmt.make
             ~region:(Region.of_bounds [ (1, 8) ])
             ~lhs:"A"
             ~lhs_off:(Support.Vec.zero 1)
             (Expr.Binop
                ( Expr.Add,
                  Expr.Const Float.nan,
                  Expr.Binop
                    (Expr.Mul, Expr.Const infinity, Expr.Const 0x1.123456789abcdp-3)
                )));
      ]
      [ "A" ]
  in
  let text = Fuzz.Repro.to_string p in
  match Fuzz.Repro.of_string text with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok p' ->
      Alcotest.(check string) "nan/inf/hex floats survive" text
        (Fuzz.Repro.to_string p')

(* ------------------------------------------------------------------ *)
(* Differential property over the generator                            *)
(* ------------------------------------------------------------------ *)

let prop_levels_match_reference =
  QCheck.Test.make ~name:"refinterp == interp at every level (fuzz gen)"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Support.Prng.create (Int64.of_int (seed + 1)) in
      let p = Fuzz.Gen.generate rng in
      let want = Exec.Refinterp.checksum (Exec.Refinterp.run p) in
      List.for_all
        (fun level ->
          let c = Compilers.Driver.compile_exn_opts (Compilers.Driver.opts level) p in
          let got = Exec.Interp.checksum (Exec.Interp.run c.Compilers.Driver.code) in
          if String.equal want got then true
          else
            QCheck.Test.fail_reportf "level %s: want %s got %s@.%s"
              (Compilers.Driver.level_name level)
              want got (Fuzz.Repro.to_string p))
        (Compilers.Driver.all_levels @ [ Compilers.Driver.C2P ]))

(* ------------------------------------------------------------------ *)
(* Parallel campaigns (Fuzz.Campaign over Support.Pool)                *)
(* ------------------------------------------------------------------ *)

(* a cheap oracle slice: determinism is about scheduling, not backend
   coverage, so skip the planner, SPMD tail and cc round-trips *)
let campaign_cfg =
  {
    Fuzz.Oracle.default with
    Fuzz.Oracle.levels = Compilers.Driver.[ Baseline; C2F3 ];
    planner = false;
    native = false;
    spmd_procs = [ 4 ];
  }

let campaign_digest cases =
  String.concat "\n"
    (List.map
       (fun (c : Fuzz.Campaign.case) ->
         Printf.sprintf "%d\n%s%s" c.Fuzz.Campaign.index
           (Fuzz.Repro.to_string c.Fuzz.Campaign.program)
           (Fuzz.Oracle.to_string c.Fuzz.Campaign.report))
       cases)

let test_campaign_parallel_deterministic () =
  let run jobs = Fuzz.Campaign.run ~cfg:campaign_cfg ~jobs ~n:12 ~seed:3L () in
  let seq = run 1 in
  Alcotest.(check (list int))
    "cases come back in order"
    (List.init 12 (fun i -> i + 1))
    (List.map (fun (c : Fuzz.Campaign.case) -> c.Fuzz.Campaign.index) seq);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "%d domains == sequential" jobs)
        (campaign_digest seq)
        (campaign_digest (run jobs)))
    [ 2; 8 ]

(* with a recorder installed, per-case counters merge back in case
   order — the totals cannot depend on which domain ran which case *)
let test_campaign_merges_obs () =
  let counters jobs =
    let t = Obs.create () in
    Obs.run t (fun () ->
        ignore
          (Fuzz.Campaign.run ~cfg:campaign_cfg ~jobs ~n:6 ~seed:4L ()
            : Fuzz.Campaign.case list));
    (Obs.report t).Obs.counters
  in
  let seq = counters 1 in
  Alcotest.(check bool)
    "campaign emits counters" true
    (List.exists (fun (_, v) -> v > 0) seq);
  Alcotest.(check bool) "counters identical at 4 domains" true
    (seq = counters 4)

(* ------------------------------------------------------------------ *)
(* Corpus replay                                                       *)
(* ------------------------------------------------------------------ *)

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".zir")
  |> List.sort compare
  |> List.map (Filename.concat "corpus")

let test_corpus_replays () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is not empty" true (files <> []);
  List.iter
    (fun path ->
      match Fuzz.Repro.load path with
      | Error m -> Alcotest.failf "%s: parse failed: %s" path m
      | Ok p -> (
          (match Prog.validate p with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s: invalid: %s" path m);
          let r = Fuzz.Oracle.run p in
          if not (Fuzz.Oracle.ok r) then
            Alcotest.failf "%s: diverged:@.%s" path (Fuzz.Oracle.to_string r);
          (* the planning pipeline must actually have been exercised —
             the corpus (reduce-same-target.zir in particular) is the
             regression net for the plan backend *)
          if not (List.mem_assoc "plan@ilp" r.Fuzz.Oracle.results) then
            Alcotest.failf "%s: oracle skipped plan@ilp" path))
    files

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

let has_pow p =
  let rec expr e =
    Expr.fold
      (fun acc e -> acc || match e with Expr.Binop (Expr.Pow, _, _) -> true | _ -> false)
      false e
  and stmt = function
    | Prog.Astmt n -> expr n.Nstmt.rhs
    | Prog.Reduce { arg; _ } -> expr arg
    | Prog.Sassign (_, e) -> expr e
    | Prog.Sloop { body; _ } -> List.exists stmt body
  in
  List.exists stmt p.Prog.body

let test_shrink_preserves_property () =
  let rng = Support.Prng.create 9L in
  (* draw generated programs until one contains Pow, then shrink while
     preserving "contains Pow" (standing in for "still diverges") *)
  let rec find tries =
    if tries = 0 then Alcotest.fail "no Pow program in 50 draws"
    else
      let p = Fuzz.Gen.generate rng in
      if has_pow p then p else find (tries - 1)
  in
  let p = find 50 in
  let small = Fuzz.Shrink.run ~check:has_pow p in
  Alcotest.(check bool) "property preserved" true (has_pow small);
  (match Prog.validate small with
  | Ok () -> ()
  | Error m -> Alcotest.failf "shrunk program invalid: %s" m);
  let size q = String.length (Fuzz.Repro.to_string q) in
  Alcotest.(check bool) "no growth" true (size small <= size p)

let test_shrink_fixed_point () =
  (* a minimal single-statement program with the property cannot lose
     it, whatever the shrinker does *)
  let p =
    mk_prog ~arrays:[ rank1_a ]
      [
        Prog.Astmt
          (Nstmt.make
             ~region:(Region.of_bounds [ (1, 1) ])
             ~lhs:"A"
             ~lhs_off:(Support.Vec.zero 1)
             (Expr.Binop (Expr.Pow, Expr.Const 2.0, Expr.Const 3.0)));
      ]
      [ "A" ]
  in
  let small = Fuzz.Shrink.run ~check:has_pow p in
  Alcotest.(check bool) "still has pow" true (has_pow small)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "fuzz-nan",
      [
        Alcotest.test_case "min/max propagate NaN" `Quick test_minmax_nan;
        Alcotest.test_case "min/max NaN has C's NAN bits" `Quick
          test_minmax_nan_bits;
        Alcotest.test_case "min/max tie on signed zero" `Quick
          test_minmax_signed_zero;
        Alcotest.test_case "digest canonicalizes NaN" `Quick
          test_digest_nan_canonical;
      ] );
    ( "fuzz-guards",
      [
        Alcotest.test_case "refinterp scalar-context errors" `Quick
          test_refinterp_scalar_context;
        Alcotest.test_case "validate rejects ill-formed" `Quick
          test_validate_rejects;
      ] );
    ( "fuzz-gen",
      [
        Alcotest.test_case "generated programs validate" `Quick
          test_gen_validates;
        Alcotest.test_case "generation is deterministic" `Quick
          test_gen_deterministic;
        QCheck_alcotest.to_alcotest prop_repro_roundtrip;
        Alcotest.test_case "special floats round-trip" `Quick
          test_repro_special_floats;
      ] );
    ( "fuzz-oracle",
      [
        QCheck_alcotest.to_alcotest prop_levels_match_reference;
        Alcotest.test_case "corpus replays green" `Slow test_corpus_replays;
      ] );
    ( "fuzz-campaign",
      [
        Alcotest.test_case "parallel campaign is deterministic" `Quick
          test_campaign_parallel_deterministic;
        Alcotest.test_case "obs counters merge deterministically" `Quick
          test_campaign_merges_obs;
      ] );
    ( "fuzz-shrink",
      [
        Alcotest.test_case "shrink preserves the property" `Quick
          test_shrink_preserves_property;
        Alcotest.test_case "shrink fixed point" `Quick test_shrink_fixed_point;
      ] );
  ]
