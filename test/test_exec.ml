(* Interpreters: counters, traces, bounds enforcement, reductions. *)

open Ir
module Vec = Support.Vec
module Code = Sir.Code

let v = Vec.of_list

(* A tiny hand-built scalar program: B[i] = A[i-1] * 2 over i=1..4. *)
let hand_program () =
  {
    Code.name = "hand";
    allocs =
      [
        { Code.name = "A"; dims = [| (0, 5) |] };
        { Code.name = "B"; dims = [| (0, 5) |] };
      ];
    scalars = [ ("k", 2.0) ];
    body =
      [
        Code.For
          {
            var = "__i1";
            lo = 0;
            hi = 5;
            step = 1;
            body =
              [
                Code.Store
                  ( "A",
                    [| { Code.base = "__i1"; off = 0 } |],
                    Code.Scalar "__i1" );
              ];
          };
        Code.For
          {
            var = "__i1";
            lo = 1;
            hi = 4;
            step = 1;
            body =
              [
                Code.Store
                  ( "B",
                    [| { Code.base = "__i1"; off = 0 } |],
                    Code.Binop
                      ( Expr.Mul,
                        Code.Load ("A", [| { Code.base = "__i1"; off = -1 } |]),
                        Code.Scalar "k" ) );
              ];
          };
      ];
    live_out = [ "B" ];
  }

let test_counters_exact () =
  let r = Exec.Interp.run (hand_program ()) in
  let c = Exec.Interp.counters r in
  Alcotest.(check int) "stores" (6 + 4) c.Exec.Interp.stores;
  Alcotest.(check int) "loads" 4 c.Exec.Interp.loads;
  Alcotest.(check int) "flops" 4 c.Exec.Interp.flops

let test_values () =
  let r = Exec.Interp.run (hand_program ()) in
  Alcotest.(check (float 0.0)) "B[3] = A[2]*2 = 4" 4.0
    (Exec.Interp.read_point r "B" [| 3 |]);
  Alcotest.(check (float 0.0)) "B[0] untouched" 0.0
    (Exec.Interp.read_point r "B" [| 0 |]);
  Alcotest.(check (float 0.0)) "scalar k" 2.0 (Exec.Interp.get_scalar r "k")

let test_trace () =
  let events = ref [] in
  let _ =
    Exec.Interp.run
      ~trace:(fun ~addr ~write -> events := (addr, write) :: !events)
      (hand_program ())
  in
  let events = List.rev !events in
  Alcotest.(check int) "one event per access" 14 (List.length events);
  Alcotest.(check bool)
    "8-byte aligned" true
    (List.for_all (fun (a, _) -> a mod 8 = 0) events);
  (* loads of A and stores of B interleave in the second loop *)
  let writes = List.filter snd events in
  Alcotest.(check int) "writes" 10 (List.length writes);
  (* distinct arrays never share addresses *)
  let addr_of (a, _) = a in
  let a_addrs = List.filteri (fun i _ -> i < 6) events |> List.map addr_of in
  let b_addrs =
    List.filteri (fun i _ -> i >= 6) events
    |> List.filter snd |> List.map addr_of
  in
  Alcotest.(check bool)
    "disjoint address ranges" true
    (List.for_all (fun a -> not (List.mem a b_addrs)) a_addrs)

let test_out_of_bounds () =
  let bad =
    {
      (hand_program ()) with
      Code.body =
        [
          Code.Store ("A", [| { Code.base = ""; off = 9 } |], Code.Const 1.0);
        ];
    }
  in
  Alcotest.(check bool)
    "OOB raises" true
    (try
       ignore (Exec.Interp.run bad);
       false
     with Exec.Interp.Runtime_error _ -> true)

let test_undefined_scalar () =
  let bad =
    { (hand_program ()) with Code.body = [ Code.Sassign ("x", Code.Scalar "nope") ] }
  in
  Alcotest.(check bool)
    "undefined scalar raises" true
    (try
       ignore (Exec.Interp.run bad);
       false
     with Exec.Interp.Runtime_error _ -> true)

let test_descending_loop () =
  (* prefix dependences honored by a descending loop: A[i] = A[i-1]+1
     executed descending leaves old values (no cascade) *)
  let p =
    {
      Code.name = "desc";
      allocs = [ { Code.name = "A"; dims = [| (0, 4) |] } ];
      scalars = [];
      body =
        [
          Code.For
            {
              var = "__i1";
              lo = 1;
              hi = 4;
              step = -1;
              body =
                [
                  Code.Store
                    ( "A",
                      [| { Code.base = "__i1"; off = 0 } |],
                      Code.Binop
                        ( Expr.Add,
                          Code.Load ("A", [| { Code.base = "__i1"; off = -1 } |]),
                          Code.Const 1.0 ) );
                ];
            };
        ];
      live_out = [ "A" ];
    }
  in
  let r = Exec.Interp.run p in
  (* descending: each A[i] reads the ORIGINAL A[i-1] = 0 -> all 1 *)
  Alcotest.(check (array (float 0.0)))
    "no cascade"
    [| 0.0; 1.0; 1.0; 1.0; 1.0 |]
    (Exec.Interp.get_array r "A")

let test_checksum_sensitivity () =
  let p = hand_program () in
  let r1 = Exec.Interp.run p in
  let p2 =
    {
      p with
      Code.scalars = [ ("k", 3.0) ];
    }
  in
  let r2 = Exec.Interp.run p2 in
  Alcotest.(check bool)
    "different results, different checksums" true
    (Exec.Interp.checksum r1 <> Exec.Interp.checksum r2)

let test_footprint () =
  Alcotest.(check int) "bytes" (8 * 12) (Exec.Interp.footprint_bytes (hand_program ()))

(* ------------------------------------------------------------------ *)
(* Observable behaviour, pinned                                        *)
(* ------------------------------------------------------------------ *)

(* Digest of the ordered (addr, write) stream a traced run emits. *)
let run_traced code =
  let module H = Support.Hash64 in
  let d = ref H.empty in
  let r =
    Exec.Interp.run
      ~trace:(fun ~addr ~write -> d := H.mix_int (H.mix_int !d addr) (Bool.to_int write))
      code
  in
  (r, H.to_hex !d)

(* checksum, (loads, stores, flops, iters) and trace digest of every
   suite benchmark at tile 16 *)
let suite_golden =
  [
    ("ep", "baseline", "7cad4da4cb0e1adc", (960, 352, 864, 352), "a6127f5dcb8321e0");
    ("ep", "c2", "7cad4da4cb0e1adc", (0, 0, 864, 0), "0000000000000000");
    ("ep", "c2+f3", "7cad4da4cb0e1adc", (0, 0, 864, 0), "0000000000000000");
    ("frac", "baseline", "747b488625d50500", (64512, 34560, 46080, 34560), "b6b425186474df00");
    ("frac", "c2", "747b488625d50500", (27648, 9984, 46080, 9984), "f8d864f98c939f00");
    ("frac", "c2+f3", "747b488625d50500", (27648, 9984, 46080, 9984), "f8d864f98c939f00");
    ("tomcatv", "baseline", "b31bc8883aa10e30", (56832, 17236, 57700, 17236), "fb0e38b6683acdd4");
    ("tomcatv", "c2", "b31bc8883aa10e30", (32768, 8532, 57700, 8532), "332e6e2a070c4754");
    ("tomcatv", "c2+f3", "b31bc8883aa10e30", (32768, 8532, 57700, 8532), "3fb94a71b0fa0f54");
    ("sp", "baseline", "c3babfb6c9f3fdf3", (95384, 18840, 126388, 18840), "3433df5dc9c54548");
    ("sp", "c2", "c3babfb6c9f3fdf3", (89240, 14232, 126388, 14232), "1ff5355dffd9b3c8");
    ("sp", "c2+f3", "c3babfb6c9f3fdf3", (89240, 14232, 126388, 14232), "6cd01ca8e6b02d88");
    ("simple", "baseline", "a546c199137dfc5d", (86664, 30324, 107836, 30324), "42f4bd3f4ff24504");
    ("simple", "c2", "a546c199137dfc5d", (75144, 21876, 107836, 21876), "6b9268c09475ad84");
    ("simple", "c2+f3", "a546c199137dfc5d", (75144, 21876, 107836, 21876), "8f32e9da6fc0d7c4");
    ("fibro", "baseline", "424fb4100dfb1d10", (115456, 38244, 155736, 38244), "5690da0454196b64");
    ("fibro", "c2", "424fb4100dfb1d10", (93184, 21348, 155736, 21348), "e40f07c1e76a3b64");
    ("fibro", "c2+f3", "424fb4100dfb1d10", (93184, 21348, 155736, 21348), "052e56fa6582b364");
  ]

let test_suite_golden () =
  List.iter
    (fun (bench, level, sum, (loads, stores, flops, iters), trace) ->
      let lvl = Option.get (Compilers.Driver.level_of_name level) in
      let code =
        (Compilers.Driver.compile_exn_opts (Compilers.Driver.opts lvl)
           (Suite.load ~tile:16 bench))
          .Compilers.Driver.code
      in
      let what = bench ^ " " ^ level in
      let r = Exec.Interp.run code in
      let c = Exec.Interp.counters r in
      let rt, digest = run_traced code in
      let ct = Exec.Interp.counters rt in
      Alcotest.(check string) (what ^ " checksum") sum (Exec.Interp.checksum r);
      Alcotest.(check (list int))
        (what ^ " loads/stores/flops/iters")
        [ loads; stores; flops; iters ]
        [ c.loads; c.stores; c.flops; c.iters ];
      Alcotest.(check string) (what ^ " trace digest") trace digest;
      Alcotest.(check string)
        (what ^ " traced checksum")
        sum (Exec.Interp.checksum rt);
      Alcotest.(check (list int))
        (what ^ " traced counters")
        [ loads; stores; flops; iters ]
        [ ct.loads; ct.stores; ct.flops; ct.iters ])
    suite_golden

let sub base off = { Code.base; off }

(* A: 0..5, M: 0..3 x 0..2, scalars s = 2.7 and t = -0.7. *)
let edge_program body =
  {
    Code.name = "edge";
    allocs =
      [
        { Code.name = "A"; dims = [| (0, 5) |] };
        { Code.name = "M"; dims = [| (0, 3); (0, 2) |] };
      ];
    scalars = [ ("s", 2.7); ("t", -0.7) ];
    body;
    live_out = [ "A" ];
  }

let loop ?(step = 1) var lo hi body = Code.For { var; lo; hi; step; body }

let raises_exactly what msg body =
  match Exec.Interp.run (edge_program body) with
  | _ -> Alcotest.failf "%s: no Runtime_error" what
  | exception Exec.Interp.Runtime_error m -> Alcotest.(check string) what msg m

let test_error_text () =
  let one = Code.Const 1.0 in
  raises_exactly "out of bounds, dim 1" "M: subscript 5 out of bounds [0..3] in dim 1"
    [ Code.Store ("M", [| sub "" 5; sub "" 0 |], one) ];
  raises_exactly "out of bounds, dim 2" "M: subscript -1 out of bounds [0..2] in dim 2"
    [ Code.Sassign ("x", Code.Load ("M", [| sub "" 1; sub "" (-1) |])) ];
  raises_exactly "rank mismatch" "M: rank 1 subscript on rank 2 array"
    [ Code.Store ("M", [| sub "" 0 |], one) ];
  raises_exactly "undefined scalar read" "undefined scalar nope"
    [ Code.Sassign ("x", Code.Scalar "nope") ];
  raises_exactly "undefined subscript base" "undefined scalar q"
    [ Code.Store ("A", [| sub "q" 0 |], one) ];
  raises_exactly "undefined array load" "undefined (or contracted) array Z"
    [ Code.Sassign ("x", Code.Load ("Z", [| sub "" 0 |])) ];
  raises_exactly "undefined array store" "undefined (or contracted) array Z"
    [ Code.Store ("Z", [| sub "" 0 |], one) ];
  (* evaluation order: a store's right-hand side before its target, all
     subscripts before any bounds check *)
  raises_exactly "store rhs first" "undefined scalar nope"
    [ Code.Store ("Z", [| sub "" 0 |], Code.Scalar "nope") ];
  raises_exactly "subscripts before bounds" "undefined scalar q"
    [ Code.Store ("M", [| sub "" 9; sub "q" 0 |], one) ];
  (* Select is a blend: the unselected arm still executes *)
  raises_exactly "select evaluates both arms" "A: subscript 99 out of bounds [0..5] in dim 1"
    [ Code.Sassign ("x", Code.Select (one, one, Code.Load ("A", [| sub "" 99 |]))) ]

let test_edge_behaviour () =
  let run body = Exec.Interp.run (edge_program body) in
  let bad =
    [
      Code.Store ("Z", [| sub "" 0 |], Code.Scalar "nope");
      Code.Store ("A", [| sub "" 99 |], Code.Load ("M", [| sub "q" 0 |]));
      Code.Sassign ("x", Code.Scalar "nope");
    ]
  in
  ignore (run [ loop "__i1" 5 4 bad; loop ~step:(-1) "__i2" 3 2 bad ]);
  (* events emitted before an out-of-bounds access mid-loop *)
  let events = ref 0 in
  (match
     Exec.Interp.run
       ~trace:(fun ~addr:_ ~write:_ -> incr events)
       (edge_program
          [
            loop "__i1" 0 5
              [ Code.Store ("M", [| sub "" 0; sub "__i1" 0 |], Code.Load ("A", [| sub "__i1" 3 |])) ];
          ])
   with
  | _ -> Alcotest.fail "mid-loop out of bounds: no Runtime_error"
  | exception Exec.Interp.Runtime_error m ->
      Alcotest.(check string) "mid-loop error" "A: subscript 6 out of bounds [0..5] in dim 1" m);
  Alcotest.(check int) "trace events before the error" 6 !events;
  let get r x = Exec.Interp.get_scalar r x in
  let r = run [ loop "__i1" 0 5 []; loop ~step:(-1) "__i2" 1 4 [] ] in
  Alcotest.(check (float 0.0)) "ascending loop variable after its loop" 5.0 (get r "__i1");
  Alcotest.(check (float 0.0)) "descending loop variable after its loop" 1.0 (get r "__i2");
  let undefined what f =
    Alcotest.(check bool) what true
      (try
         ignore (f ());
         false
       with Exec.Interp.Runtime_error m -> m = "undefined scalar __i1")
  in
  undefined "loop variable read before its loop" (fun () ->
      run [ Code.Sassign ("x", Code.Scalar "__i1"); loop "__i1" 0 1 [] ]);
  undefined "loop variable of a zero-trip loop" (fun () ->
      get (run [ loop "__i1" 1 0 [] ]) "__i1");
  let r =
    run
      [
        loop "__i1" 0 3
          [
            Code.Sassign ("__i1", Code.Const 5.5);
            Code.Store ("A", [| sub "__i1" 0 |], Code.Scalar "__i1");
          ];
      ]
  in
  Alcotest.(check (float 0.0)) "reassigned loop variable" 5.5 (get r "__i1");
  Alcotest.(check (float 0.0)) "reassigned loop variable as subscript" 5.5
    (Exec.Interp.read_point r "A" [| 5 |]);
  let r =
    run
      [
        Code.Store ("A", [| sub "s" 1 |], Code.Const 1.0);
        Code.Store ("A", [| sub "t" 0 |], Code.Const 2.0);
      ]
  in
  Alcotest.(check (array (float 0.0)))
    "scalar subscript bases truncate toward zero"
    [| 2.0; 0.0; 0.0; 1.0; 0.0; 0.0 |]
    (Exec.Interp.get_array r "A")

(* ------------------------------------------------------------------ *)
(* The strip path agrees with the element path                         *)
(* ------------------------------------------------------------------ *)

(* A traced run executes every loop element by element; an untraced
   run takes the strip path wherever a loop passes its test. *)
let by_element code = Exec.Interp.run ~trace:(fun ~addr:_ ~write:_ -> ()) code

let outcome f =
  match f () with v -> Ok v | exception Exec.Interp.Runtime_error m -> Error m

(* every declared scalar, Sassign target and loop variable *)
let scalar_names (p : Code.program) =
  let rec stmt acc = function
    | Code.Sassign (x, _) -> x :: acc
    | Code.Store _ -> acc
    | Code.For { var; body; _ } -> List.fold_left stmt (var :: acc) body
  in
  List.sort_uniq compare
    (List.fold_left stmt (List.map fst p.Code.scalars) p.Code.body)

let agrees what (code : Code.program) =
  let bits = Result.map Int64.bits_of_float in
  let check_bits name a b =
    Alcotest.(check (array int64))
      (Printf.sprintf "%s: array %s" what name)
      (Array.map Int64.bits_of_float a)
      (Array.map Int64.bits_of_float b)
  in
  match (outcome (fun () -> by_element code), outcome (fun () -> Exec.Interp.run code)) with
  | Error m, Error m' -> Alcotest.(check string) (what ^ ": error") m m'
  | Error m, Ok _ -> Alcotest.failf "%s: only the element path raised %s" what m
  | Ok _, Error m -> Alcotest.failf "%s: only the strip path raised %s" what m
  | Ok e, Ok s ->
      let counts r =
        let c = Exec.Interp.counters r in
        Exec.Interp.[ c.loads; c.stores; c.flops; c.iters ]
      in
      Alcotest.(check (list int)) (what ^ ": counters") (counts e) (counts s);
      Alcotest.(check (result string string))
        (what ^ ": checksum")
        (outcome (fun () -> Exec.Interp.checksum e))
        (outcome (fun () -> Exec.Interp.checksum s));
      List.iter
        (fun (a : Code.alloc) ->
          check_bits a.name (Exec.Interp.get_array e a.name)
            (Exec.Interp.get_array s a.name))
        code.allocs;
      List.iter
        (fun x ->
          Alcotest.(check (result int64 string))
            (Printf.sprintf "%s: scalar %s" what x)
            (bits (outcome (fun () -> Exec.Interp.get_scalar e x)))
            (bits (outcome (fun () -> Exec.Interp.get_scalar s x))))
        (scalar_names code)

let levels = Compilers.Driver.(all_levels @ [ C2P ])

let compiled level prog =
  (Compilers.Driver.compile_exn_opts (Compilers.Driver.opts level) prog)
    .Compilers.Driver.code

let agrees_at_levels ?(agrees = agrees) what prog =
  List.iter
    (fun level ->
      agrees
        (what ^ " " ^ Compilers.Driver.level_name level)
        (compiled level prog))
    levels

let corpus () =
  let files =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".zir")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus is not empty" true (files <> []);
  List.map
    (fun f ->
      match Fuzz.Repro.load (Filename.concat "corpus" f) with
      | Ok p -> (f, p)
      | Error m -> Alcotest.failf "%s: %s" f m)
    files

let test_strip_corpus () =
  List.iter (fun (f, p) -> agrees_at_levels f p) (corpus ())

let test_strip_suite () =
  List.iter
    (fun (b : Suite.bench) ->
      agrees_at_levels b.Suite.name (Suite.program b);
      agrees_at_levels (b.Suite.name ^ " tile 16") (Suite.program ~tile:16 b))
    (Suite.all @ Suite.extras)

(* each generated program at one level of the ladder, in turn *)
let test_strip_generated () =
  let rng = Support.Prng.create 25L in
  let level i = List.nth levels (i mod List.length levels) in
  for i = 1 to 200 do
    let p = Fuzz.Gen.generate rng in
    agrees
      (Printf.sprintf "generated program %d" i)
      (compiled (level i) p)
  done;
  for i = 1 to 100 do
    let p = Fuzz.Gen.generate_trace rng in
    agrees (Printf.sprintf "trace program %d" i) (compiled (level i) p)
  done

(* [run_over] on zeroed arrays laid out as [run] lays them out, in
   [allocs] order with bases 8 elements apart, runs as [run] does:
   the same checksum and counters, traced and untraced, and the same
   address trace. *)
let over_agrees what (code : Code.program) =
  let zeroed () =
    snd
      (List.fold_left_map
         (fun base (a : Code.alloc) ->
           let n = Code.alloc_volume a in
           (base + n + 8, (a.name, base, a.dims, Array.make (max 1 n) 0.0)))
         0 code.allocs)
  in
  let observe run =
    outcome (fun () ->
        let r = run () in
        let c = Exec.Interp.counters r in
        (Exec.Interp.checksum r, Exec.Interp.[ c.loads; c.stores; c.flops; c.iters ]))
  in
  let same kind a b =
    Alcotest.(check (result (pair string (list int)) string)) (what ^ kind) a b
  in
  let trace events ~addr ~write = events := (addr, write) :: !events in
  let by_run = ref [] and by_over = ref [] in
  same ": traced"
    (observe (fun () -> Exec.Interp.run ~trace:(trace by_run) code))
    (observe (fun () -> Exec.Interp.run_over ~trace:(trace by_over) (zeroed ()) code));
  Alcotest.(check int) (what ^ ": trace length") (List.length !by_run)
    (List.length !by_over);
  Alcotest.(check bool) (what ^ ": trace") true (!by_run = !by_over);
  same ": untraced"
    (observe (fun () -> Exec.Interp.run code))
    (observe (fun () -> Exec.Interp.run_over (zeroed ()) code))

let test_run_over () =
  List.iter (fun (f, p) -> agrees_at_levels ~agrees:over_agrees f p) (corpus ());
  List.iter
    (fun (b : Suite.bench) ->
      agrees_at_levels ~agrees:over_agrees (b.Suite.name ^ " tile 16")
        (Suite.program ~tile:16 b))
    Suite.all

(* A and B: 0..big, M: 0..rows x 0..cols; s and t declared. *)
let big = (2 * Exec.Interp.strip) + 40
let rows = Exec.Interp.strip + 5
let cols = 3

let hazard_program body =
  {
    Code.name = "hazard";
    allocs =
      [
        { Code.name = "A"; dims = [| (0, big) |] };
        { Code.name = "B"; dims = [| (0, big) |] };
        { Code.name = "M"; dims = [| (0, rows); (0, cols) |] };
      ];
    scalars = [ ("s", 2.7); ("t", -0.7) ];
    body;
    live_out = [ "A"; "B"; "M" ];
  }

let i = "__i1"
let at ?(off = 0) x = Code.Load (x, [| sub i off |])
let store ?(off = 0) x e = Code.Store (x, [| sub i off |], e)
let ( +: ) a b = Code.Binop (Expr.Add, a, b)
let ( *: ) a b = Code.Binop (Expr.Mul, a, b)
let sc x = Code.Scalar x
let num f = Code.Const f

(* A[i] = i/2 + s and B[i] = A[i] * t over the whole range: values that
   differ at every element *)
let init =
  [
    loop i 0 big [ store "A" ((sc i *: num 0.5) +: sc "s") ];
    loop ~step:(-1) i 0 big [ store "B" (at "A" *: sc "t") ];
  ]

let test_strip_hazards () =
  let n = Exec.Interp.strip in
  let case what body = agrees what (hazard_program (init @ body)) in
  List.iter
    (fun (step, dir) ->
      let loop = loop ~step in
      let case what = case (what ^ " " ^ dir) in
      case "recurrence A[i] = (A[i-1] + 1) * t"
        [ loop i 1 big [ store "A" ((at ~off:(-1) "A" +: num 1.0) *: sc "t") ] ];
      case "recurrence A[i] = A[i+1] + 1"
        [ loop i 0 (big - 1) [ store "A" (at ~off:1 "A" +: num 1.0) ] ];
      case "flow dependence at an offset"
        [
          loop i 1 big
            [ store "A" (at "B" *: sc "s"); store "B" (at ~off:(-1) "A") ];
        ];
      case "anti dependence at an offset"
        [
          loop i 0 (big - 1)
            [ store "B" (at ~off:1 "A"); store "A" (at "B" +: sc "t") ];
        ];
      case "store at an invariant subscript"
        [
          loop i 0 big
            [ Code.Store ("A", [| sub "" 3 |], Code.Load ("A", [| sub "" 3 |]) +: at "B") ];
        ];
      case "carried scalar s = s + A[i]"
        [ loop i 0 big [ Code.Sassign ("s", sc "s" +: at "A") ] ];
      case "scalar read before its write"
        [
          Code.Sassign ("x", num 1.5);
          loop i 0 big [ store "B" (sc "x"); Code.Sassign ("x", at "A") ];
        ];
      case "scalar written twice"
        [
          loop i 0 big
            [
              Code.Sassign ("x", at "A");
              store "B" (sc "x");
              Code.Sassign ("x", at "B" *: sc "t");
              store "A" (sc "x" +: sc i);
            ];
        ];
      case "reassigned loop variable"
        [ loop i 0 7 [ Code.Sassign (i, num 5.5); store "A" (sc i) ] ];
      case "private scalars, loop variable read"
        [
          loop i 0 big
            [
              Code.Sassign ("x", at "A" *: sc "s");
              Code.Sassign ("y", sc "x" +: sc i);
              store "B" (sc "y" *: sc "x");
              store "A" (Code.Select (sc "x", sc "y", at "A"));
              Code.Sassign ("z", at "B");
              Code.Sassign ("c", sc "t");
            ];
        ];
      case "zero-trip loop"
        [ loop i 5 4 [ Code.Sassign ("x", at "A"); store "B" (sc "x") ] ];
      List.iter
        (fun trip ->
          case
            (Printf.sprintf "trip %d (strip %d)" trip n)
            [
              loop i 3 (trip + 2)
                [
                  Code.Sassign ("x", Code.Unop (Expr.Neg, at "A"));
                  store "B" (sc "x" +: at ~off:(-3) "A");
                ];
            ])
        [ 1; 2; n - 1; n; n + 1; 2 * n; (2 * n) + 3 ];
      (* the inner loop walks M's rows, the non-contiguous dimension *)
      case "inner loop over rows of M"
        [
          loop "__i2" 0 cols
            [
              loop i 0 rows
                [
                  Code.Sassign ("x", at "A" *: sc "__i2");
                  Code.Store
                    ( "M",
                      [| sub i 0; sub "__i2" 0 |],
                      Code.Load ("M", [| sub i 0; sub "__i2" 0 |]) +: sc "x" );
                  store ~off:1 "B" (at "A" +: sc "x");
                ];
            ];
        ])
    [ (1, "ascending"); (-1, "descending") ]

(* Every kernel of the strip path over every kind of view.  A and B are
   1-D over 0..big, M and N 2-D over 0..rows x 0..cols; each case
   initializes all four, then runs one loop whose body reads A (or N
   down a column) and stores B (or M): a unit view when the loop walks
   A and B, a strided one when it walks the rows of N and M, each
   ascending and descending, over trips of 1, [strip] and [strip + 1].
   The bodies cover each pass (unary, binary, Select, copy, the loop
   variable's) with view, dense-buffer and step-0 operands: constants,
   declared scalars, a fixed subscript, an enclosing loop's variable in
   a subscript, and private scalars. *)
let shape_program body =
  let j = "__i2" in
  let cell ?(off = 0) x = Code.Load (x, [| sub i off; sub j 0 |]) in
  {
    Code.name = "shapes";
    allocs =
      [
        { Code.name = "A"; dims = [| (0, big) |] };
        { Code.name = "B"; dims = [| (0, big) |] };
        { Code.name = "M"; dims = [| (0, rows); (0, cols) |] };
        { Code.name = "N"; dims = [| (0, rows); (0, cols) |] };
      ];
    scalars = [ ("s", 2.7); ("t", -0.7) ];
    body =
      init
      @ [
          loop j 0 cols
            [
              loop i 0 rows
                [
                  Code.Store
                    ( "N",
                      [| sub i 0; sub j 0 |],
                      ((sc i *: num 0.25) +: sc j) *: sc "t" );
                  Code.Store ("M", [| sub i 0; sub j 0 |], cell "N" +: num 1.0);
                ];
            ];
        ]
      @ body;
    live_out = [ "A"; "B"; "M"; "N" ];
  }

let test_strip_kernel_shapes () =
  let n = Exec.Interp.strip in
  let j = "__i2" in
  (* [view] is the loop's source reference at an offset, [fixed] and
     [outer] step-0 references, [store] the stored reference *)
  let unit_view =
    ( "unit",
      (fun off -> at ~off "A"),
      Code.Load ("A", [| sub "" 3 |]),
      Code.Load ("A", [| sub "" 5 |]),
      fun e -> store "B" e )
  in
  let strided_view =
    ( "strided",
      (fun off -> Code.Load ("N", [| sub i off; sub j 0 |])),
      Code.Load ("N", [| sub "" 3; sub j 0 |]),
      Code.Load ("A", [| sub j 1 |]),
      fun e -> Code.Store ("M", [| sub i 0; sub j 0 |], e) )
  in
  let bodies view fixed outer store =
    let x = view 0 and y = view 2 in
    let bin op a b = Code.Binop (op, a, b) in
    let binops =
      List.concat_map
        (fun (name, op) ->
          [
            (name ^ " view view", [ store (bin op x y) ]);
            (name ^ " view const", [ store (bin op x (num 1.25)) ]);
            (name ^ " scalar view", [ store (bin op (sc "s") x) ]);
            (name ^ " fixed outer", [ store (bin op fixed outer) ]);
          ])
        Expr.
          [
            ("add", Add); ("sub", Sub); ("mul", Mul); ("div", Div);
            ("max", Max); ("lt", Lt); ("pow", Pow);
          ]
    in
    binops
    @ [
        ("neg view", [ store (Code.Unop (Expr.Neg, x)) ]);
        ("neg fixed", [ store (Code.Unop (Expr.Neg, fixed)) ]);
        ("abs view", [ store (Code.Unop (Expr.Abs, x)) ]);
        ("hashrand outer", [ store (Code.Unop (Expr.Hashrand, outer +: x)) ]);
        ( "select view",
          [ store (Code.Select (bin Expr.Gt x y, x, num (-2.0))) ] );
        ( "select invariant condition",
          [ store (Code.Select (sc "s", fixed, y)) ] );
        ("copy view", [ store x ]);
        ("copy const", [ store (num 0.5) ]);
        ("copy scalar", [ store (sc "t") ]);
        ("copy fixed", [ store fixed ]);
        ("copy loop variable", [ store (sc i) ]);
        ("loop variable times view", [ store (sc i *: x) ]);
        ( "private scalars",
          [
            Code.Sassign ("p", x);
            Code.Sassign ("q", sc "p" *: sc "s");
            Code.Sassign ("r", Code.Unop (Expr.Neg, y));
            store (sc "q" +: sc "r" +: sc "p");
            Code.Sassign ("z", outer);
          ] );
      ]
  in
  List.iter
    (fun (kind, view, fixed, outer, store) ->
      List.iter
        (fun (step, dir) ->
          List.iter
            (fun trip ->
              List.iter
                (fun (what, body) ->
                  let inner = loop ~step i 1 trip body in
                  let body =
                    if kind = "unit" then [ inner ]
                    else [ loop j 0 cols [ inner ] ]
                  in
                  agrees
                    (Printf.sprintf "%s %s, %s, trip %d" what kind dir trip)
                    (shape_program body))
                (bodies view fixed outer store))
            [ 1; n; n + 1 ])
        [ (1, "ascending"); (-1, "descending") ])
    [ unit_view; strided_view ]

(* Runtime errors inside loops that would take the strip path, with the
   element path's texts (the same as before the strip path existed). *)
let test_strip_error_text () =
  let raises what msg body =
    match Exec.Interp.run (hazard_program body) with
    | _ -> Alcotest.failf "%s: no Runtime_error" what
    | exception Exec.Interp.Runtime_error m -> Alcotest.(check string) what msg m
  in
  List.iter
    (fun (step, dir) ->
      let loop = loop ~step in
      let raises what = raises (what ^ " " ^ dir) in
      let oob x sub hi =
        Printf.sprintf "%s: subscript %d out of bounds [0..%d] in dim 1" x sub hi
      in
      raises "out of bounds at i = 0" (oob "A" (-1) big)
        [ loop i 0 big [ Code.Sassign ("x", at "B"); store "B" (at ~off:(-1) "A") ] ];
      raises "out of bounds at i = big" (oob "A" (big + 1) big)
        [ loop i 0 big [ store "B" (at ~off:1 "A" +: sc "s") ] ];
      raises "store out of bounds at i = big" (oob "B" (big + 1) big)
        [ loop i 0 big [ store ~off:1 "B" (at "A") ] ];
      raises "2-D out of bounds in the last row" (oob "M" (rows + 1) rows)
        [
          loop "__i2" 0 cols
            [ loop i 0 rows [ Code.Store ("M", [| sub i 1; sub "__i2" 0 |], num 1.0) ] ];
        ];
      raises "undefined invariant scalar"
        "undefined scalar nope"
        [ loop i 0 big [ Code.Sassign ("x", at "A"); store "B" (sc "x" *: sc "nope") ] ];
      raises "rank mismatch"
        "M: rank 1 subscript on rank 2 array"
        [ loop i 0 big [ Code.Store ("M", [| sub i 0 |], at "A") ] ])
    [ (1, "ascending"); (-1, "descending") ]

(* Digest.mix_array ([Support.Hash64.mix_float_array]) is the
   per-element fold of Digest.mix ([mix_float]): NaNs of several
   payloads and both signs (each mixes as the canonical NaN), signed
   zeros, infinities, subnormals and empty arrays included, over lengths
   up to 600. *)
let prop_mix_array =
  let special =
    List.map Int64.float_of_bits
      [
        0x7FF8000000000000L; 0xFFF8000000000000L; 0x7FF0000000000001L;
        0xFFF0000000000001L; 0x7FF4000000000000L; 0x7FF8DEADBEEF0001L;
        0xFFFFFFFFFFFFFFFFL; 0x7FFFFFFFFFFFFFFFL; 0x0000000000000001L;
        0x8000000000000001L; 0x000FFFFFFFFFFFFFL; 0x800FFFFFFFFFFFFFL;
      ]
    @ [ 0.0; -0.0; infinity; neg_infinity; 1.0; -1.5 ]
  in
  QCheck.Test.make ~name:"Digest.mix_array == fold of Digest.mix" ~count:300
    QCheck.(
      pair (option float)
        (array_of_size Gen.(int_range 0 600)
           (make Gen.(oneof [ oneofl special; float ]))))
    (fun (prefix, a) ->
      let module D = Exec.Interp.Digest in
      let d = match prefix with Some v -> D.mix D.empty v | None -> D.empty in
      D.to_hex (D.mix_array d a) = D.to_hex (Array.fold_left D.mix d a))

(* One digest pinned: a loop that kept the fold property but moved the
   algebra itself would show here. *)
let test_mix_array_pinned () =
  let a =
    Array.init 300 (fun k ->
        match k mod 5 with
        | 0 -> Int64.float_of_bits (Int64.of_int (k * 0x9E3779B9))
        | 1 -> Float.nan
        | 2 -> -0.0
        | 3 -> ldexp (float_of_int k) (-1074)
        | _ -> float_of_int k /. 7.0)
  in
  let module D = Exec.Interp.Digest in
  Alcotest.(check string)
    "digest of 300 values" "d968bd2f315087f1"
    (D.to_hex (D.mix_array D.empty a))

(* ------------------------------------------------------------------ *)
(* Reference interpreter                                               *)
(* ------------------------------------------------------------------ *)

let region4 = Region.of_bounds [ (1, 4) ]

let ref_prog body scalars =
  {
    Prog.name = "ref";
    arrays =
      [ { Prog.name = "A"; bounds = Region.of_bounds [ (0, 5) ]; kind = Prog.User } ];
    scalars;
    body;
    live_out = [ "A" ];
  }

let test_reduce_ops () =
  let mk op =
    ref_prog
      [
        Prog.Astmt (Nstmt.make ~region:region4 ~lhs:"A" Expr.(Idx 1));
        Prog.Reduce
          { target = "s"; op; region = region4; arg = Expr.(Ref ("A", v [ 0 ])) };
      ]
      [ ("s", 0.0) ]
  in
  let value op =
    Exec.Refinterp.get_scalar (Exec.Refinterp.run (mk op)) "s"
  in
  Alcotest.(check (float 0.0)) "sum 1..4" 10.0 (value Prog.Rsum);
  Alcotest.(check (float 0.0)) "prod 1..4" 24.0 (value Prog.Rprod);
  Alcotest.(check (float 0.0)) "min" 1.0 (value Prog.Rmin);
  Alcotest.(check (float 0.0)) "max" 4.0 (value Prog.Rmax)

let test_full_rhs_before_store () =
  (* array semantics: [R] A := A@[-1] + 1 must read OLD values of A *)
  let p =
    ref_prog
      [
        Prog.Astmt (Nstmt.make ~region:region4 ~lhs:"A" Expr.(Idx 1));
        (* normalized form: the frontend would insert a temporary; here
           we exercise the reference interpreter directly with the
           temp-free equivalent over two arrays *)
      ]
      []
  in
  let r = Exec.Refinterp.run p in
  Alcotest.(check (float 0.0)) "A[2]" 2.0
    (List.nth (Array.to_list (Exec.Refinterp.get_array r "A")) 2)

let test_sloop_env () =
  (* loop variable visible as a scalar in the body *)
  let p =
    ref_prog
      [
        Prog.Sloop
          {
            var = "t";
            lo = 1;
            hi = 3;
            body =
              [
                Prog.Astmt
                  (Nstmt.make ~region:region4 ~lhs:"A"
                     Expr.(Binop (Add, Svar "t", Const 0.0)));
              ];
          };
      ]
      []
  in
  let r = Exec.Refinterp.run p in
  (* last iteration writes t=3 everywhere in the interior *)
  Alcotest.(check (float 0.0)) "A[1] = 3" 3.0
    (Exec.Refinterp.get_array r "A").(1)

let suites =
  [
    ( "exec.interp",
      [
        Alcotest.test_case "exact counters" `Quick test_counters_exact;
        Alcotest.test_case "values" `Quick test_values;
        Alcotest.test_case "memory trace" `Quick test_trace;
        Alcotest.test_case "bounds enforced" `Quick test_out_of_bounds;
        Alcotest.test_case "undefined scalar" `Quick test_undefined_scalar;
        Alcotest.test_case "descending loop" `Quick test_descending_loop;
        Alcotest.test_case "checksum sensitivity" `Quick test_checksum_sensitivity;
        Alcotest.test_case "footprint" `Quick test_footprint;
        Alcotest.test_case "suite golden: checksums, counters, traces" `Quick
          test_suite_golden;
        Alcotest.test_case "golden error text" `Quick test_error_text;
        Alcotest.test_case "golden edge behaviour" `Quick test_edge_behaviour;
        Alcotest.test_case "strip path == element path: corpus" `Quick
          test_strip_corpus;
        Alcotest.test_case "strip path == element path: suite" `Quick
          test_strip_suite;
        Alcotest.test_case "strip path == element path: generated" `Quick
          test_strip_generated;
        Alcotest.test_case "strip path == element path: hazards" `Quick
          test_strip_hazards;
        Alcotest.test_case "strip path == element path: kernel shapes" `Quick
          test_strip_kernel_shapes;
        Alcotest.test_case "golden error text inside loops" `Quick
          test_strip_error_text;
        Alcotest.test_case "run_over on run's layout == run" `Quick
          test_run_over;
        QCheck_alcotest.to_alcotest prop_mix_array;
        Alcotest.test_case "Digest.mix_array pinned" `Quick
          test_mix_array_pinned;
      ] );
    ( "exec.refinterp",
      [
        Alcotest.test_case "reduction operators" `Quick test_reduce_ops;
        Alcotest.test_case "elementwise store" `Quick test_full_rhs_before_store;
        Alcotest.test_case "loop variable scope" `Quick test_sloop_env;
      ] );
  ]
