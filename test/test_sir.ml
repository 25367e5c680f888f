(* Scalarization: loop nest structure, directions, contraction codegen. *)

open Ir
module Vec = Support.Vec
module Code = Sir.Code

let v = Vec.of_list
let r44 = Region.of_bounds [ (1, 4); (1, 4) ]
let padded = Region.of_bounds [ (0, 5); (0, 5) ]

let prog_of ?(arrays = [ "A"; "B"; "T" ]) ?(live = [ "A"; "B" ]) body =
  {
    Prog.name = "t";
    arrays =
      List.map
        (fun name -> { Prog.name; bounds = padded; kind = Prog.User })
        arrays;
    scalars = [];
    body;
    live_out = live;
  }

let compile level prog = (Compilers.Driver.compile_exn_opts (Compilers.Driver.opts level) prog).Compilers.Driver.code

let astmt ?(r = r44) lhs rhs = Prog.Astmt (Nstmt.make ~region:r ~lhs rhs)

let test_baseline_one_nest_per_stmt () =
  let prog =
    prog_of
      [
        astmt "T" Expr.(Ref ("A", v [ 0; 0 ]));
        astmt "B" Expr.(Ref ("T", v [ 0; 0 ]));
      ]
  in
  let code = compile Compilers.Driver.Baseline prog in
  Alcotest.(check int) "2 nests" 2 (Code.count_nests code);
  Alcotest.(check int) "4 loops (2 per rank-2 nest)" 4 (Code.count_loops code)

let test_fusion_single_nest () =
  let prog =
    prog_of
      [
        astmt "T" Expr.(Ref ("A", v [ 0; 0 ]));
        astmt "B" Expr.(Ref ("T", v [ 0; 0 ]));
      ]
  in
  let code = compile Compilers.Driver.C2 prog in
  Alcotest.(check int) "1 nest" 1 (Code.count_nests code);
  Alcotest.(check int) "2 loops" 2 (Code.count_loops code);
  (* T became a scalar: not allocated *)
  Alcotest.(check (list string))
    "allocs" [ "A"; "B" ]
    (List.map (fun (a : Code.alloc) -> a.Code.name) code.Code.allocs)

let rec find_for code_stmts =
  match code_stmts with
  | [] -> None
  | Code.For { var; lo; hi; step; body } :: _ -> Some (var, lo, hi, step, body)
  | _ :: tl -> find_for tl

let test_reversed_loop_emitted () =
  (* anti dependence forces a descending outer loop *)
  let prog =
    prog_of
      [
        astmt "T" Expr.(Binop (Add, Ref ("A", v [ -1; 0 ]), Ref ("A", v [ -1; 0 ])));
        astmt "A" Expr.(Ref ("T", v [ 0; 0 ]));
      ]
      ~live:[ "A" ]
  in
  let code = compile Compilers.Driver.C2 prog in
  match find_for code.Code.body with
  | Some (var, _, _, step, body) ->
      Alcotest.(check string) "outer over dim 1" "__i1" var;
      Alcotest.(check int) "descending" (-1) step;
      (match find_for body with
      | Some (_, _, _, inner_step, _) ->
          Alcotest.(check int) "inner ascending" 1 inner_step
      | None -> Alcotest.fail "no inner loop")
  | None -> Alcotest.fail "no loop emitted"

let test_statement_order_in_nest () =
  (* flow-dependent statements must appear def-before-use in the body *)
  let prog =
    prog_of
      [
        astmt "T" Expr.(Ref ("A", v [ 0; 0 ]));
        astmt "B" Expr.(Binop (Mul, Ref ("T", v [ 0; 0 ]), Const 2.0));
      ]
  in
  let code = compile Compilers.Driver.C2 prog in
  let rec innermost = function
    | Code.For { body; _ } -> (
        match body with [ (Code.For _ as f) ] -> innermost f | _ -> body)
    | s -> [ s ]
  in
  match code.Code.body with
  | [ nest ] -> (
      match innermost nest with
      | [ Code.Sassign ("T", _); Code.Store ("B", _, _) ] -> ()
      | other ->
          Alcotest.failf "unexpected body shape (%d stmts)" (List.length other))
  | _ -> Alcotest.fail "expected one nest"

let test_partial_contraction_codegen () =
  (* T := A ; B := T + T@(0,-1): under c2+p, T keeps only dim 2, so its
     loads/stores must carry exactly one subscript *)
  let prog =
    prog_of
      [
        astmt "T" Expr.(Ref ("A", v [ 0; 0 ]));
        astmt "B" Expr.(Binop (Add, Ref ("T", v [ 0; 0 ]), Ref ("T", v [ 0; -1 ])));
      ]
  in
  let code = compile Compilers.Driver.C2P prog in
  let t_alloc =
    List.find (fun (a : Code.alloc) -> a.Code.name = "T") code.Code.allocs
  in
  Alcotest.(check int) "T is rank 1" 1 (Array.length t_alloc.Code.dims);
  let rec scan = function
    | Code.For { body; _ } -> List.iter scan body
    | Code.Store ("T", subs, e) ->
        Alcotest.(check int) "store rank" 1 (Array.length subs);
        scan_expr e
    | Code.Store (_, _, e) | Code.Sassign (_, e) -> scan_expr e
  and scan_expr = function
    | Code.Load ("T", subs) ->
        Alcotest.(check int) "load rank" 1 (Array.length subs)
    | Code.Load _ | Code.Const _ | Code.Scalar _ -> ()
    | Code.Unop (_, a) -> scan_expr a
    | Code.Binop (_, a, b) ->
        scan_expr a;
        scan_expr b
    | Code.Select (c, a, b) ->
        scan_expr c;
        scan_expr a;
        scan_expr b
  in
  List.iter scan code.Code.body

let test_plan_length_mismatch () =
  let prog = prog_of [ astmt "B" Expr.(Ref ("A", v [ 0; 0 ])) ] in
  Alcotest.(check bool)
    "wrong plan rejected" true
    (try
       ignore (Sir.Scalarize.scalarize prog (Prog.skeleton prog) []);
       false
     with Sir.Scalarize.Error _ -> true)

let test_trivial_plan_matches_blocks () =
  let prog =
    prog_of
      [
        astmt "T" Expr.(Ref ("A", v [ 0; 0 ]));
        Prog.Sassign ("s", Expr.Const 1.0);
        astmt "B" Expr.(Ref ("T", v [ 0; 0 ]));
      ]
      ~live:[ "A"; "B" ]
  in
  let prog = { prog with Prog.scalars = [ ("s", 0.0) ] } in
  Alcotest.(check int) "plan per block" 2
    (List.length (Sir.Scalarize.trivial_plan prog))

let test_c_printer_mentions_arrays () =
  let prog = prog_of [ astmt "B" Expr.(Ref ("A", v [ -1; 1 ])) ] in
  let code = compile Compilers.Driver.Baseline prog in
  let c_text = Sir.Emit_c.to_string code in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Astring.String.is_infix ~affix:needle c_text))
    [ "#include <math.h>"; "double A"; "double B"; "for ("; "__i1"; "__i2" ]

let test_loop_var_names () =
  Alcotest.(check string) "loop_var" "__i3" (Code.loop_var 3)

let test_alloc_volume () =
  let a = { Code.name = "X"; dims = [| (0, 5); (1, 4) |] } in
  Alcotest.(check int) "volume" 24 (Code.alloc_volume a);
  let empty = { Code.name = "Y"; dims = [| (3, 2) |] } in
  Alcotest.(check int) "empty" 0 (Code.alloc_volume empty)

let test_rank1_and_rank3 () =
  (* scalarization handles rank 1 and rank 3 regions *)
  let r1 = Region.of_bounds [ (1, 5) ] in
  let p1 =
    {
      Prog.name = "r1";
      arrays = [ { Prog.name = "A"; bounds = r1; kind = Prog.User } ];
      scalars = [];
      body = [ Prog.Astmt (Nstmt.make ~region:r1 ~lhs:"A" Expr.(Idx 1)) ];
      live_out = [ "A" ];
    }
  in
  let c1 = compile Compilers.Driver.C2 p1 in
  Alcotest.(check int) "rank 1: one loop" 1 (Code.count_loops c1);
  let r3 = Region.of_bounds [ (1, 3); (1, 3); (1, 3) ] in
  let p3 =
    {
      Prog.name = "r3";
      arrays = [ { Prog.name = "A"; bounds = r3; kind = Prog.User } ];
      scalars = [];
      body =
        [
          Prog.Astmt
            (Nstmt.make ~region:r3 ~lhs:"A"
               Expr.(Binop (Add, Idx 1, Binop (Add, Idx 2, Idx 3))));
        ];
      live_out = [ "A" ];
    }
  in
  let c3 = compile Compilers.Driver.C2 p3 in
  Alcotest.(check int) "rank 3: three loops" 3 (Code.count_loops c3);
  (* and both still match reference semantics *)
  List.iter
    (fun p ->
      let want = Exec.Refinterp.checksum (Exec.Refinterp.run p) in
      let got =
        Exec.Interp.checksum
          (Exec.Interp.run (compile Compilers.Driver.C2 p))
      in
      Alcotest.(check string) "equivalent" want got)
    [ p1; p3 ]

let suites =
  [
    ( "sir.scalarize",
      [
        Alcotest.test_case "baseline nest count" `Quick test_baseline_one_nest_per_stmt;
        Alcotest.test_case "fusion single nest" `Quick test_fusion_single_nest;
        Alcotest.test_case "reversed loop" `Quick test_reversed_loop_emitted;
        Alcotest.test_case "statement order" `Quick test_statement_order_in_nest;
        Alcotest.test_case "partial contraction codegen" `Quick test_partial_contraction_codegen;
        Alcotest.test_case "plan mismatch" `Quick test_plan_length_mismatch;
        Alcotest.test_case "trivial plan" `Quick test_trivial_plan_matches_blocks;
        Alcotest.test_case "rank 1 and rank 3" `Quick test_rank1_and_rank3;
      ] );
    ( "sir.code",
      [
        Alcotest.test_case "C printer" `Quick test_c_printer_mentions_arrays;
        Alcotest.test_case "loop_var" `Quick test_loop_var_names;
        Alcotest.test_case "alloc volume" `Quick test_alloc_volume;
      ] );
  ]
