open Ir
module Vec = Support.Vec

let v = Vec.of_list
let r2 bounds = Region.of_bounds bounds

let test_region_basics () =
  let r = r2 [ (1, 4); (1, 3) ] in
  Alcotest.(check int) "rank" 2 (Region.rank r);
  Alcotest.(check int) "volume" 12 (Region.volume r);
  Alcotest.(check int) "extent 1" 4 (Region.extent r 1);
  Alcotest.(check int) "extent 2" 3 (Region.extent r 2);
  Alcotest.(check bool) "nonempty" false (Region.is_empty r);
  Alcotest.(check bool) "empty" true (Region.is_empty (r2 [ (3, 2) ]))

let test_region_shift_contains () =
  let r = r2 [ (1, 4); (1, 3) ] in
  let s = Region.shift r (v [ -1; 2 ]) in
  Alcotest.(check string) "shift" "[0..3,3..5]" (Region.to_string s);
  Alcotest.(check bool)
    "contains" true
    (Region.contains (r2 [ (0, 5); (0, 6) ]) s);
  Alcotest.(check bool)
    "not contains" false
    (Region.contains (r2 [ (1, 5); (0, 6) ]) s)

let test_region_inter () =
  let a = r2 [ (1, 4) ] and b = r2 [ (3, 9) ] in
  (match Region.inter a b with
  | Some i -> Alcotest.(check string) "inter" "[3..4]" (Region.to_string i)
  | None -> Alcotest.fail "expected intersection");
  Alcotest.(check bool)
    "disjoint" true
    (Region.inter (r2 [ (1, 2) ]) (r2 [ (3, 4) ]) = None)

let test_region_iter_rowmajor () =
  let seen = ref [] in
  Region.iter (r2 [ (1, 2); (5, 6) ]) (fun idx ->
      seen := Array.to_list (Array.copy idx) :: !seen);
  Alcotest.(check (list (list int)))
    "row-major order"
    [ [ 1; 5 ]; [ 1; 6 ]; [ 2; 5 ]; [ 2; 6 ] ]
    (List.rev !seen)

let prop_region_iter_count =
  QCheck.Test.make ~name:"iter visits volume points" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 3) (pair (int_range (-3) 3) (int_range (-3) 3)))
    (fun bounds ->
      let r = Region.of_bounds bounds in
      let n = ref 0 in
      Region.iter r (fun _ -> incr n);
      !n = Region.volume r)

let test_expr_refs () =
  let open Expr in
  let e =
    Binop
      ( Add,
        Ref ("A", v [ -1; 0 ]),
        Binop (Mul, Ref ("A", v [ -1; 0 ]), Ref ("B", v [ 0; 0 ])) )
  in
  Alcotest.(check int) "refs with duplicates" 3 (List.length (refs e));
  Alcotest.(check (list string)) "names deduped" [ "A"; "B" ] (ref_names e);
  Alcotest.(check (list string)) "svars" [] (svars e)

let test_expr_eval_ops () =
  let open Expr in
  Alcotest.(check (float 1e-12)) "min" 2.0 (apply_binop Min 3.0 2.0);
  Alcotest.(check (float 1e-12)) "lt true" 1.0 (apply_binop Lt 1.0 2.0);
  Alcotest.(check (float 1e-12)) "lt false" 0.0 (apply_binop Lt 2.0 1.0);
  Alcotest.(check (float 1e-12)) "not" 0.0 (apply_unop Not 5.0);
  Alcotest.(check (float 1e-12)) "floor" 2.0 (apply_unop Floor 2.9)

let test_hashrand () =
  let a = Expr.hashrand 1.0 and b = Expr.hashrand 1.0 in
  Alcotest.(check (float 0.0)) "pure" a b;
  Alcotest.(check bool) "in range" true (a > 0.0 && a < 1.0);
  Alcotest.(check bool)
    "different inputs differ" true
    (Expr.hashrand 1.0 <> Expr.hashrand 2.0)

let mk_stmt () =
  Nstmt.make
    ~region:(r2 [ (1, 4); (1, 3) ])
    ~lhs:"A"
    Expr.(Binop (Add, Ref ("B", v [ -1; 0 ]), Const 2.0))

let test_nstmt_normal_form () =
  let s = mk_stmt () in
  Alcotest.(check (list string)) "arrays" [ "A"; "B" ] (Nstmt.arrays s);
  Alcotest.(check int) "ref_count B" 1 (Nstmt.ref_count s "B");
  Alcotest.(check int) "ref_count A (write)" 1 (Nstmt.ref_count s "A");
  (* reading the written array is rejected *)
  Alcotest.(check bool)
    "self-reference rejected" true
    (try
       ignore
         (Nstmt.make
            ~region:(r2 [ (1, 4) ])
            ~lhs:"A"
            Expr.(Ref ("A", v [ -1 ])));
       false
     with Invalid_argument _ -> true);
  (* rank mismatch rejected *)
  Alcotest.(check bool)
    "rank mismatch rejected" true
    (try
       ignore
         (Nstmt.make ~region:(r2 [ (1, 4) ]) ~lhs:"A" Expr.(Ref ("B", v [ 0; 0 ])));
       false
     with Invalid_argument _ -> true)

let simple_prog () =
  let interior = r2 [ (1, 4); (1, 4) ] in
  let padded = r2 [ (0, 5); (0, 5) ] in
  {
    Prog.name = "p";
    arrays =
      [
        { Prog.name = "A"; bounds = padded; kind = Prog.User };
        { Prog.name = "B"; bounds = padded; kind = Prog.User };
        { Prog.name = "T"; bounds = padded; kind = Prog.Compiler };
      ];
    scalars = [ ("s", 0.0) ];
    body =
      [
        Prog.Astmt
          (Nstmt.make ~region:interior ~lhs:"T"
             Expr.(Binop (Add, Ref ("A", v [ -1; 0 ]), Const 1.0)));
        Prog.Astmt (Nstmt.make ~region:interior ~lhs:"B" Expr.(Ref ("T", v [ 0; 0 ])));
        Prog.Reduce
          { target = "s"; op = Prog.Rsum; region = interior; arg = Expr.(Ref ("B", v [ 0; 0 ])) };
        Prog.Astmt (Nstmt.make ~region:interior ~lhs:"A" Expr.(Svar "s"));
      ];
    live_out = [ "A"; "s" ];
  }

let test_prog_validate () =
  match Prog.validate (simple_prog ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_prog_validate_bounds () =
  let p = simple_prog () in
  let bad =
    {
      p with
      Prog.body =
        [
          Prog.Astmt
            (Nstmt.make
               ~region:(r2 [ (1, 4); (1, 4) ])
               ~lhs:"B"
               Expr.(Ref ("A", v [ -2; 0 ])));
        ];
    }
  in
  Alcotest.(check bool)
    "escaping ref rejected" true
    (match Prog.validate bad with Error _ -> true | Ok () -> false)

let test_prog_blocks () =
  let p = simple_prog () in
  let bs = Prog.blocks p in
  Alcotest.(check int) "two blocks (reduce splits)" 2 (List.length bs);
  Alcotest.(check (list int))
    "block sizes" [ 2; 1 ]
    (List.map List.length bs)

let test_prog_confined () =
  let p = simple_prog () in
  (* T is referenced only in block 0 and not live-out: confined.
     A is live-out; B is read by the reduction. *)
  Alcotest.(check (list (pair string int)))
    "confined arrays" [ ("T", 0) ]
    (Prog.confined_arrays p)

let test_prog_counts () =
  let c, u = Prog.static_array_counts (simple_prog ()) in
  Alcotest.(check (pair int int)) "compiler/user" (1, 2) (c, u)

let test_prog_map_blocks () =
  let p = simple_prog () in
  (* reverse each block: map_blocks must rebuild around non-block stmts *)
  let q = Prog.map_blocks (fun _ run -> List.map (fun s -> Prog.Astmt s) (List.rev run)) p in
  let bs = Prog.blocks q in
  Alcotest.(check (list int)) "shape kept" [ 2; 1 ] (List.map List.length bs);
  match List.hd bs with
  | first :: _ ->
      Alcotest.(check string) "reversed" "B" first.Nstmt.lhs
  | [] -> Alcotest.fail "empty block"

let test_reduce_helpers () =
  let interior = r2 [ (1, 4); (1, 4) ] in
  let mk lhs = Prog.Astmt (Nstmt.make ~region:interior ~lhs (Expr.Const 1.0)) in
  let red target arrname =
    Prog.Reduce
      { target; op = Prog.Rsum; region = interior;
        arg = Expr.Ref (arrname, v [ 0; 0 ]) }
  in
  let p =
    {
      Prog.name = "rh";
      arrays =
        List.map
          (fun name ->
            { Prog.name; bounds = r2 [ (0, 5); (0, 5) ]; kind = Prog.User })
          [ "A"; "B"; "C" ];
      scalars = [ ("s", 0.0); ("u", 0.0); ("w", 0.0) ];
      body =
        [
          mk "A";
          red "s" "A";          (* reduce 0: trails block 0 *)
          red "u" "A";          (* reduce 1: still trailing (consecutive) *)
          Prog.Sassign ("w", Expr.Const 0.0);
          mk "B";
          Prog.Sloop { var = "t"; lo = 1; hi = 2; body = [ mk "C" ] };
          red "w" "C";          (* reduce 2: after a loop, NOT trailing *)
        ];
      live_out = [ "s"; "u"; "w" ];
    }
  in
  (match Prog.validate p with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "three reduces" 3 (List.length (Prog.reductions p));
  Alcotest.(check (list (pair int (list int))))
    "trailing map"
    [ (0, [ 0; 1 ]); (1, []); (2, []) ]
    (Prog.fold
       (fun acc -> function
         | Prog.Block b ->
             let rs = List.map (fun (r : Prog.reduction) -> r.index) b.trailing in
             acc @ [ (b.index, rs) ]
         | _ -> acc)
       [] (Prog.skeleton p));
  (* A is read by reduces 0 and 1 only, both trailing its block *)
  Alcotest.(check bool)
    "A eligible with its trailing reduces" true
    (List.mem_assoc "A" (Prog.confined_arrays_allowing_reduces p (Prog.skeleton p)));
  Alcotest.(check bool)
    "A ineligible without" false
    (List.mem_assoc "A" (Prog.confined_arrays p));
  (* C is read by the non-trailing reduce: never eligible *)
  Alcotest.(check bool)
    "C ineligible" false
    (List.mem_assoc "C" (Prog.confined_arrays_allowing_reduces p (Prog.skeleton p)))

let test_rename_array () =
  let p = simple_prog () in
  let q = Prog.rename_array p ~old:"A" ~new_:"Z" in
  Alcotest.(check bool) "declared" true (Prog.find_array q "Z" <> None);
  Alcotest.(check bool) "old gone" true (Prog.find_array q "A" = None);
  Alcotest.(check bool) "live-out renamed" true (Prog.is_live_out q "Z");
  (match Prog.validate q with Ok () -> () | Error e -> Alcotest.fail e);
  (* semantics invariant under renaming *)
  let r1 = Exec.Refinterp.run p and r2 = Exec.Refinterp.run q in
  Alcotest.(check bool)
    "same data" true
    (Exec.Refinterp.get_array r1 "A" = Exec.Refinterp.get_array r2 "Z")

let test_nstmt_rename () =
  let s = mk_stmt () in
  let s' = Nstmt.rename (fun x -> x ^ "2") s in
  Alcotest.(check string) "lhs" "A2" s'.Nstmt.lhs;
  Alcotest.(check (list string)) "rhs" [ "A2"; "B2" ] (Nstmt.arrays s')

let suites =
  [
    ( "ir.region",
      [
        Alcotest.test_case "basics" `Quick test_region_basics;
        Alcotest.test_case "shift/contains" `Quick test_region_shift_contains;
        Alcotest.test_case "intersection" `Quick test_region_inter;
        Alcotest.test_case "row-major iter" `Quick test_region_iter_rowmajor;
        QCheck_alcotest.to_alcotest prop_region_iter_count;
      ] );
    ( "ir.expr",
      [
        Alcotest.test_case "refs" `Quick test_expr_refs;
        Alcotest.test_case "eval ops" `Quick test_expr_eval_ops;
        Alcotest.test_case "hashrand" `Quick test_hashrand;
      ] );
    ( "ir.nstmt",
      [ Alcotest.test_case "normal form" `Quick test_nstmt_normal_form ] );
    ( "ir.prog",
      [
        Alcotest.test_case "validate" `Quick test_prog_validate;
        Alcotest.test_case "bounds check" `Quick test_prog_validate_bounds;
        Alcotest.test_case "blocks" `Quick test_prog_blocks;
        Alcotest.test_case "confined arrays" `Quick test_prog_confined;
        Alcotest.test_case "static counts" `Quick test_prog_counts;
        Alcotest.test_case "map_blocks" `Quick test_prog_map_blocks;
        Alcotest.test_case "reduce helpers" `Quick test_reduce_helpers;
        Alcotest.test_case "rename array" `Quick test_rename_array;
        Alcotest.test_case "rename nstmt" `Quick test_nstmt_rename;
      ] );
  ]
