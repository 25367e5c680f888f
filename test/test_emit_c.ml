(* Differential testing against a real C compiler: the emitted C
   program must print exactly the interpreter's checksum.  Compilation
   goes through [Native.Build] (argv arrays, one translation unit) —
   no shell ever parses a path here. *)

let cc_available = Native.Toolchain.available ()

let run_c code =
  match Native.Build.run_once ~salt:(Hashtbl.hash code) code with
  | Ok r -> r.Native.Build.checksum
  | Error e -> Alcotest.fail (Native.Build.error_to_string e)

let check_program name prog =
  if cc_available then
    List.iter
      (fun level ->
        let c = Compilers.Driver.compile_exn_opts (Compilers.Driver.opts level) prog in
        let interp = Exec.Interp.checksum (Exec.Interp.run c.Compilers.Driver.code) in
        let native = run_c c.Compilers.Driver.code in
        Alcotest.(check string)
          (Printf.sprintf "%s @ %s: native == interpreter" name
             (Compilers.Driver.level_name level))
          interp native)
      Compilers.Driver.[ Baseline; C2F3 ]

let test_heat () =
  let src =
    {|
program cheat;
config n := 12;
region R = [1..n, 1..n];
var A, B, F : [0..n+1, 0..n+1];
scalar total := 0.0;
export A, total;
begin
  [0..n+1, 0..n+1] A := sin(0.3 * index1) * cos(0.2 * index2);
  for t := 1 to 3 do
    [R] B := 0.25 * (A@[-1,0] + A@[1,0] + A@[0,-1] + A@[0,1]);
    [R] F := B * B;
    [R] A := B - 0.1 * F + hashrand(index1 * 100.0 + index2) * 1e-6;
  end;
  total := +<< R A;
end.
|}
  in
  check_program "heat" (Zap.Elaborate.compile_string src)

(* Arrays named like main's locals: their storage ([k_], [t0_], ...)
   must not be shadowed by the stopwatch or the digest loop. *)
let test_local_names () =
  let src =
    {|
program locals;
config n := 6;
region R = [1..n];
var k, t0, t1, ns : [0..n+1];
export k, t0, t1, ns;
begin
  [R] k := index1 * 2.0;
  [R] t0 := k + 1.0;
  [R] t1 := t0 * k;
  [R] ns := t1 - k@[-1];
end.
|}
  in
  check_program "locals" (Zap.Elaborate.compile_string src)

let test_benchmarks_native () =
  (* the interesting benchmarks, small tiles: EP exercises hashrand and
     reduction fusion, tomcatv exercises reversal, adi3d rank 3 *)
  List.iter
    (fun (name, tile) ->
      check_program name (Suite.load ~tile name))
    [ ("ep", 64); ("tomcatv", 8); ("adi3d", 5); ("frac", 8) ]

let test_simplified_native () =
  if cc_available then begin
    let prog = Suite.load ~tile:8 "simple" in
    let c = Compilers.Driver.compile_exn_opts (Compilers.Driver.opts Compilers.Driver.C2) prog in
    let code = Sir.Simplify.program c.Compilers.Driver.code in
    let interp = Exec.Interp.checksum (Exec.Interp.run code) in
    Alcotest.(check string) "simplified code survives cc" interp (run_c code)
  end

(* Random-program differential fuzzing against cc: a small fixed
   number of cases (each costs a compiler invocation). *)
let test_random_differential () =
  if cc_available then begin
    let open Ir in
    let module Vec = Support.Vec in
    let v = Vec.of_list in
    let interior = Region.of_bounds [ (1, 4); (1, 4) ] in
    let padded = Region.of_bounds [ (0, 5); (0, 5) ] in
    let arr_names = [| "A"; "B"; "C"; "T1" |] in
    let gen =
      let open QCheck.Gen in
      let off = int_range (-1) 1 in
      let ref_gen =
        map2 (fun n (a, b) -> Expr.Ref (arr_names.(n), v [ a; b ]))
          (int_range 0 3) (pair off off)
      in
      let leaf =
        frequency
          [
            (5, ref_gen);
            (1, return (Expr.Idx 2));
            (1, map (fun f -> Expr.Const f) (float_bound_inclusive 3.0));
          ]
      in
      let expr =
        frequency
          [
            (3, map2 (fun a b -> Expr.Binop (Expr.Add, a, b)) leaf leaf);
            (2, map2 (fun a b -> Expr.Binop (Expr.Mul, a, b)) leaf leaf);
            (1, map (fun a -> Expr.Unop (Expr.Hashrand, a)) leaf);
            (1, map2 (fun a b -> Expr.Binop (Expr.Max, a, b)) leaf leaf);
          ]
      in
      list_size (int_range 1 5)
        (map2 (fun n rhs -> (arr_names.(n), rhs)) (int_range 0 3) expr)
    in
    let rand = Random.State.make [| 20260705 |] in
    for _case = 1 to 12 do
      let specs = QCheck.Gen.generate1 ~rand gen in
      let stmts =
        List.filter_map
          (fun (lhs, rhs) ->
            if List.mem lhs (Expr.ref_names rhs) then None
            else Some (Prog.Astmt (Nstmt.make ~region:interior ~lhs rhs)))
          specs
      in
      if stmts <> [] then begin
        let prog =
          {
            Prog.name = "rand";
            arrays =
              Array.to_list arr_names
              |> List.map (fun name ->
                     { Prog.name; bounds = padded; kind = Prog.User });
            scalars = [];
            body = stmts;
            live_out = [ "A"; "B" ];
          }
        in
        match Prog.validate prog with
        | Error _ -> ()
        | Ok () -> check_program "random" prog
      end
    done
  end

let suites =
  [
    ( "emit_c",
      [
        Alcotest.test_case "heat differential" `Quick test_heat;
        Alcotest.test_case "arrays named like main's locals" `Quick
          test_local_names;
        Alcotest.test_case "benchmarks differential" `Quick test_benchmarks_native;
        Alcotest.test_case "simplified differential" `Quick test_simplified_native;
        Alcotest.test_case "random differential" `Quick test_random_differential;
      ] );
  ]
