open Ir
module Vec = Support.Vec

let v = Vec.of_list
let region bounds = Region.of_bounds bounds
let r44 = region [ (1, 4); (1, 4) ]

let stmt ?(r = r44) lhs rhs = Nstmt.make ~region:r ~lhs rhs

let vec = Alcotest.testable (Fmt.of_to_string Vec.to_string) Vec.equal

(* ------------------------------------------------------------------ *)
(* The paper's Figure 2 worked example.                                *)
(*   1 [1..m,1..n] A := B@(-1,0)                                      *)
(*   2 [1..m,1..n] C := A@(0,-1)                                      *)
(*   3 [1..m,1..n] B := A@(-1,1)                                      *)
(* UDVs: A: (0,1) and (1,-1); B: (-1,0).                              *)
(* ------------------------------------------------------------------ *)

let fig2_stmts () =
  [
    stmt "A" Expr.(Ref ("B", v [ -1; 0 ]));
    stmt "C" Expr.(Ref ("A", v [ 0; -1 ]));
    stmt "B" Expr.(Ref ("A", v [ -1; 1 ]));
  ]

let test_fig2_udvs () =
  let g = Core.Asdg.build (fig2_stmts ()) in
  let labels i j = Core.Asdg.labels g i j in
  (match labels 0 1 with
  | [ l ] ->
      Alcotest.(check string) "var" "A" l.Core.Dep.var;
      Alcotest.check vec "udv A 1->2" (v [ 0; 1 ]) l.Core.Dep.udv;
      Alcotest.(check string) "kind" "flow" (Core.Dep.kind_name l.Core.Dep.kind)
  | ls -> Alcotest.failf "edge 0->1: expected 1 label, got %d" (List.length ls));
  (match labels 0 2 with
  | [ l1; l2 ] ->
      let flow = List.find (fun l -> l.Core.Dep.kind = Core.Dep.Flow) [ l1; l2 ] in
      let anti = List.find (fun l -> l.Core.Dep.kind = Core.Dep.Anti) [ l1; l2 ] in
      Alcotest.check vec "flow A 1->3" (v [ 1; -1 ]) flow.Core.Dep.udv;
      Alcotest.(check string) "anti var" "B" anti.Core.Dep.var;
      Alcotest.check vec "anti B 1->3" (v [ -1; 0 ]) anti.Core.Dep.udv
  | ls -> Alcotest.failf "edge 0->2: expected 2 labels, got %d" (List.length ls));
  Alcotest.(check (list (pair int int)))
    "edge set" [ (0, 1); (0, 2) ] (Core.Asdg.edges g)

let test_fig2_loop_structure () =
  (* The paper: for statements 1 and 3, p = (-2,-1) constrains (-1,0)
     and (1,-1) to (0,1) and (1,-1), both legal. *)
  let udvs = [ v [ 1; -1 ]; v [ -1; 0 ] ] in
  (match Core.Loopstruct.find ~rank:2 udvs with
  | Some p -> Alcotest.check vec "p = (-2,-1)" (v [ -2; -1 ]) p
  | None -> Alcotest.fail "expected a loop structure");
  Alcotest.check vec "constrain (-1,0)" (v [ 0; 1 ])
    (Core.Loopstruct.constrain (v [ -2; -1 ]) (v [ -1; 0 ]));
  Alcotest.check vec "constrain (1,-1)" (v [ 1; -1 ])
    (Core.Loopstruct.constrain (v [ -2; -1 ]) (v [ 1; -1 ]))

let test_fig2_fusion_blocked () =
  (* Statements 1 and 3 may not fuse: the flow dependence on A has a
     non-null UDV (Definition 5 condition ii). *)
  let g = Core.Asdg.build (fig2_stmts ()) in
  let p = Core.Partition.trivial g in
  Alcotest.(check bool) "1+3 blocked" false (Core.Partition.can_merge p [ 0; 2 ]);
  Alcotest.(check bool) "1+2 blocked" false (Core.Partition.can_merge p [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* Loop structure corner cases                                         *)
(* ------------------------------------------------------------------ *)

let test_ls_default () =
  (match Core.Loopstruct.find ~rank:3 [] with
  | Some p -> Alcotest.check vec "row-major default" (v [ 1; 2; 3 ]) p
  | None -> Alcotest.fail "no solution for empty set");
  Alcotest.(check bool)
    "default wellformed" true
    (Core.Loopstruct.is_wellformed (Core.Loopstruct.default 4))

let test_ls_reversal () =
  (* anti dependence (-1,0) forces reversal of dimension 1 *)
  match Core.Loopstruct.find ~rank:2 [ v [ -1; 0 ] ] with
  | Some p ->
      Alcotest.check vec "reversed dim 1 outer" (v [ -1; 2 ]) p;
      Alcotest.(check bool)
        "preserves" true
        (Core.Loopstruct.preserves p [ v [ -1; 0 ] ])
  | None -> Alcotest.fail "expected reversal solution"

let test_ls_interchange () =
  (* (0,1) in dim 2 only: dim 1 is unconstrained; outer loop takes dim 1
     (ascending scan) and the dependence is carried by the inner loop. *)
  match Core.Loopstruct.find ~rank:2 [ v [ 0; 1 ] ] with
  | Some p ->
      Alcotest.(check bool)
        "legal" true
        (Core.Loopstruct.preserves p [ v [ 0; 1 ] ])
  | None -> Alcotest.fail "expected solution"

let test_ls_nosolution () =
  (* (1,-1) and (-1,1): dimension 1 and 2 both mixed-sign. *)
  Alcotest.(check bool)
    "NOSOLUTION" true
    (Core.Loopstruct.find ~rank:2 [ v [ 1; -1 ]; v [ -1; 1 ] ] = None)

let udv_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun rank ->
    list_size (int_range 0 6)
      (array_size (return rank) (int_range (-2) 2)))

let prop_ls_sound =
  QCheck.Test.make ~name:"FIND-LOOP-STRUCTURE output preserves all deps"
    ~count:1000
    (QCheck.make udv_gen ~print:(fun udvs ->
         String.concat ";" (List.map Vec.to_string udvs)))
    (fun udvs ->
      match udvs with
      | [] -> true
      | u0 :: _ -> (
          let rank = Vec.rank u0 in
          if List.exists (fun u -> Vec.rank u <> rank) udvs then
            QCheck.assume_fail ()
          else
            match Core.Loopstruct.find ~rank udvs with
            | None -> true
            | Some p ->
                Core.Loopstruct.is_wellformed p
                && Core.Loopstruct.preserves p udvs))

let prop_ls_complete_on_lexpos =
  (* Any set of lexicographically nonnegative UDVs is preserved by the
     identity structure, so find must succeed on a superset criterion:
     if all UDVs are elementwise nonnegative, a solution exists. *)
  QCheck.Test.make ~name:"FIND-LOOP-STRUCTURE succeeds on nonneg deps"
    ~count:500
    (QCheck.make udv_gen)
    (fun udvs ->
      let nonneg = List.map (Array.map abs) udvs in
      match nonneg with
      | [] -> true
      | u0 :: _ ->
          let rank = Vec.rank u0 in
          if List.exists (fun u -> Vec.rank u <> rank) nonneg then
            QCheck.assume_fail ()
          else Core.Loopstruct.find ~rank nonneg <> None)

(* ------------------------------------------------------------------ *)
(* Weights                                                             *)
(* ------------------------------------------------------------------ *)

let test_weights () =
  let g =
    Core.Asdg.build
      [
        stmt "T" Expr.(Binop (Add, Ref ("A", v [ 0; 0 ]), Ref ("A", v [ -1; 0 ])));
        stmt "B" Expr.(Binop (Mul, Ref ("T", v [ 0; 0 ]), Ref ("T", v [ 0; 0 ])));
      ]
  in
  (* T: 1 write + 2 reads = 3 refs x 16 = 48; A: 2 x 16 = 32 *)
  Alcotest.(check int) "w(T)" 48 (Core.Weights.weight g "T");
  Alcotest.(check int) "w(A)" 32 (Core.Weights.weight g "A");
  Alcotest.(check (list string))
    "order" [ "T"; "A"; "B" ]
    (Core.Weights.by_decreasing_weight g [ "A"; "T"; "B" ])

(* ------------------------------------------------------------------ *)
(* GROW                                                                 *)
(* ------------------------------------------------------------------ *)

let grow_chain_stmts () =
  (* s0: T := B ; s1: U := T ; s2: V := U ; s3: W := T + V
     Contracting T must pull in the whole chain or create a cycle. *)
  [
    stmt "T" Expr.(Ref ("B", v [ 0; 0 ]));
    stmt "U" Expr.(Ref ("T", v [ 0; 0 ]));
    stmt "V" Expr.(Ref ("U", v [ 0; 0 ]));
    stmt "W" Expr.(Binop (Add, Ref ("T", v [ 0; 0 ]), Ref ("V", v [ 0; 0 ])));
  ]

let test_grow () =
  let g = Core.Asdg.build (grow_chain_stmts ()) in
  let p = Core.Partition.trivial g in
  Alcotest.(check (list int))
    "grow {0,3} = {1,2}" [ 1; 2 ]
    (Core.Partition.grow p [ 0; 3 ]);
  Alcotest.(check (list int)) "grow {0,1} = {}" [] (Core.Partition.grow p [ 0; 1 ])

let test_fusion_uses_grow () =
  let g = Core.Asdg.build (grow_chain_stmts ()) in
  let p =
    Core.Fusion.for_contraction ~candidates:[ "T"; "U"; "V"; "W" ] g
  in
  Alcotest.(check int) "all fused" 1 (Core.Partition.n_clusters p);
  Alcotest.(check bool) "valid" true (Core.Partition.is_valid p);
  Alcotest.(check (list string))
    "all contracted"
    [ "T"; "U"; "V"; "W" ]
    (Core.Contraction.decide p ~candidates:[ "T"; "U"; "V"; "W" ])

(* ------------------------------------------------------------------ *)
(* Fragment (4): compiler temporary from a self-referencing statement  *)
(* ------------------------------------------------------------------ *)

let test_compiler_temp_contraction () =
  (* A(1:n,1:m) = A(0:n-1,1:m)+A(0:n-1,1:m) normalizes to
       T := A@(-1,0) + A@(-1,0) ;  A := T
     Fusing the pair carries the anti dependence on A by reversing the
     loop over dimension 1; T then contracts. *)
  let stmts =
    [
      stmt "T"
        Expr.(Binop (Add, Ref ("A", v [ -1; 0 ]), Ref ("A", v [ -1; 0 ])));
      stmt "A" Expr.(Ref ("T", v [ 0; 0 ]));
    ]
  in
  let g = Core.Asdg.build stmts in
  let p = Core.Fusion.for_contraction ~candidates:[ "T" ] g in
  Alcotest.(check int) "fused" 1 (Core.Partition.n_clusters p);
  Alcotest.(check (list string))
    "T contracted" [ "T" ]
    (Core.Contraction.decide p ~candidates:[ "T" ]);
  match Core.Partition.loop_structure p 0 with
  | Some ls ->
      (* anti dependence A: udv (-1,0) - (0,0) = (-1,0): dim 1 reversed *)
      Alcotest.check vec "reversal chosen" (v [ -1; 2 ]) ls
  | None -> Alcotest.fail "no loop structure"

(* ------------------------------------------------------------------ *)
(* Upward-exposed reads block contraction                              *)
(* ------------------------------------------------------------------ *)

let test_upward_exposed () =
  let stmts =
    [
      stmt "B" Expr.(Ref ("T", v [ 0; 0 ]));  (* reads T before any write *)
      stmt "T" Expr.(Ref ("C", v [ 0; 0 ]));
    ]
  in
  let g = Core.Asdg.build stmts in
  let p = Core.Fusion.for_contraction ~candidates:[ "T" ] g in
  Alcotest.(check (list string))
    "not contracted" []
    (Core.Contraction.decide p ~candidates:[ "T" ])

(* ------------------------------------------------------------------ *)
(* Region mismatch blocks fusion                                       *)
(* ------------------------------------------------------------------ *)

let test_region_mismatch () =
  let rA = region [ (1, 4); (1, 4) ] and rB = region [ (0, 4); (1, 4) ] in
  let stmts =
    [
      Nstmt.make ~region:rA ~lhs:"T" Expr.(Ref ("A", v [ 0; 0 ]));
      Nstmt.make ~region:rB ~lhs:"B" Expr.(Ref ("T", v [ 0; 0 ]));
    ]
  in
  let g = Core.Asdg.build stmts in
  let p = Core.Partition.trivial g in
  Alcotest.(check bool) "different regions" false
    (Core.Partition.can_merge p [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* Greedy pairwise fusion (f4)                                         *)
(* ------------------------------------------------------------------ *)

let test_greedy_pairwise () =
  (* Independent statements all fuse under f4. *)
  let stmts =
    [
      stmt "A" Expr.(Ref ("X", v [ 0; 0 ]));
      stmt "B" Expr.(Ref ("Y", v [ 0; 0 ]));
      stmt "C" Expr.(Ref ("Z", v [ 0; 0 ]));
    ]
  in
  let g = Core.Asdg.build stmts in
  let p = Core.Fusion.greedy_pairwise (Core.Partition.trivial g) in
  Alcotest.(check int) "all fused" 1 (Core.Partition.n_clusters p);
  Alcotest.(check bool) "valid" true (Core.Partition.is_valid p)

let test_greedy_no_cycle () =
  (* s0 -> s1 (non-null flow) -> s2; fusing s0 with s2 would put the
     middle cluster on a cycle; greedy pairwise must respect this. *)
  let stmts =
    [
      stmt "A" Expr.(Ref ("X", v [ 0; 0 ]));
      stmt "B" Expr.(Ref ("A", v [ -1; 0 ]));
      stmt "C" Expr.(Binop (Add, Ref ("B", v [ -1; 0 ]), Ref ("A", v [ -1; 0 ])));
    ]
  in
  let g = Core.Asdg.build stmts in
  let p = Core.Fusion.greedy_pairwise (Core.Partition.trivial g) in
  Alcotest.(check bool) "valid" true (Core.Partition.is_valid p)

(* ------------------------------------------------------------------ *)
(* may_fuse veto                                                       *)
(* ------------------------------------------------------------------ *)

let test_may_fuse_veto () =
  let g = Core.Asdg.build (grow_chain_stmts ()) in
  let p =
    Core.Fusion.for_contraction
      ~may_fuse:(fun _ -> false)
      ~candidates:[ "T"; "U"; "V"; "W" ]
      g
  in
  Alcotest.(check int) "veto keeps trivial" 4 (Core.Partition.n_clusters p)

(* ------------------------------------------------------------------ *)
(* Partial contraction (extension)                                     *)
(* ------------------------------------------------------------------ *)

let test_partial_contraction () =
  (* T written at 0 and read at (0,-1): the flow UDV (0,1) blocks
     parallel fusion (Definition 5 ii), but sequential fusion with
     relax_flow admits it, and dimension 1 carries no offsets, so T
     contracts to a 1-D buffer. *)
  let stmts =
    [
      stmt "T" Expr.(Ref ("A", v [ 0; 0 ]));
      stmt "B" Expr.(Binop (Add, Ref ("T", v [ 0; 0 ]), Ref ("T", v [ 0; -1 ])));
    ]
  in
  let g = Core.Asdg.build stmts in
  let strict = Core.Fusion.greedy_pairwise (Core.Partition.trivial g) in
  Alcotest.(check int)
    "parallel fusion blocked" 2
    (Core.Partition.n_clusters strict);
  let p =
    Core.Fusion.greedy_pairwise ~relax_flow:true (Core.Partition.trivial g)
  in
  Alcotest.(check int) "fused" 1 (Core.Partition.n_clusters p);
  Alcotest.(check (list string))
    "not scalar-contractible" []
    (Core.Contraction.decide p ~candidates:[ "T" ]);
  match Core.Contraction.decide_partial p ~candidates:[ "T" ] with
  | [ ("T", Core.Contraction.Keep_dims keep) ] ->
      Alcotest.(check (list bool)) "keeps dim 2 only" [ false; true ]
        (Array.to_list keep);
      Alcotest.(check int) "volume 4"
        4
        (Core.Contraction.shape_volume r44 (Core.Contraction.Keep_dims keep))
  | _ -> Alcotest.fail "expected partial contraction of T"

(* ------------------------------------------------------------------ *)
(* Random-program property: fusion always yields a valid partition     *)
(* ------------------------------------------------------------------ *)

let random_block_gen =
  let open QCheck.Gen in
  let names = [| "A"; "B"; "C"; "D"; "E" |] in
  let off = int_range (-1) 1 in
  let ref_gen = map2 (fun n (a, b) -> Expr.Ref (names.(n), v [ a; b ]))
      (int_range 0 4) (pair off off)
  in
  let expr_gen =
    map2 (fun a b -> Expr.Binop (Expr.Add, a, b)) ref_gen ref_gen
  in
  list_size (int_range 1 8)
    (map2 (fun n rhs -> (names.(n), rhs)) (int_range 0 4) expr_gen)

let mk_block specs =
  List.filter_map
    (fun (lhs, rhs) ->
      (* drop statements that violate normal form (self reads) *)
      if List.mem lhs (Expr.ref_names rhs) then None
      else Some (Nstmt.make ~region:r44 ~lhs rhs))
    specs

let prop_fusion_valid =
  QCheck.Test.make ~name:"FUSION-FOR-CONTRACTION yields valid partitions"
    ~count:500
    (QCheck.make random_block_gen)
    (fun specs ->
      match mk_block specs with
      | [] -> true
      | stmts ->
          let g = Core.Asdg.build stmts in
          let p =
            Core.Fusion.for_contraction
              ~candidates:[ "A"; "B"; "C"; "D"; "E" ]
              g
          in
          Core.Partition.is_valid p)

let prop_locality_fusion_valid =
  QCheck.Test.make ~name:"locality and pairwise fusion keep validity"
    ~count:300
    (QCheck.make random_block_gen)
    (fun specs ->
      match mk_block specs with
      | [] -> true
      | stmts ->
          let g = Core.Asdg.build stmts in
          let p0 =
            Core.Fusion.for_contraction
              ~candidates:[ "A"; "B"; "C"; "D"; "E" ]
              g
          in
          let p1 = Core.Fusion.for_locality p0 in
          let p2 = Core.Fusion.greedy_pairwise p1 in
          Core.Partition.is_valid p1 && Core.Partition.is_valid p2)

let prop_contracted_deps_null =
  QCheck.Test.make ~name:"contracted arrays have only null in-cluster deps"
    ~count:300
    (QCheck.make random_block_gen)
    (fun specs ->
      match mk_block specs with
      | [] -> true
      | stmts ->
          let g = Core.Asdg.build stmts in
          let cands = [ "A"; "B"; "C"; "D"; "E" ] in
          let p = Core.Fusion.for_contraction ~candidates:cands g in
          let contracted = Core.Contraction.decide p ~candidates:cands in
          List.for_all
            (fun x ->
              Core.Asdg.deps_on g x
              |> List.for_all (fun (((i, j), l) : (int * int) * Core.Dep.label) ->
                     Core.Partition.same_cluster p i j
                     && Vec.is_null l.Core.Dep.udv))
            contracted)

(* ------------------------------------------------------------------ *)
(* ASDG per-array tables vs the scans they replace                     *)
(* ------------------------------------------------------------------ *)

(* The straightforward definitions, kept here as oracles: each scans
   every statement or every edge on every call. *)
module Naive_asdg = struct
  let vars g =
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    Array.iter
      (fun s ->
        List.iter
          (fun x ->
            if not (Hashtbl.mem seen x) then begin
              Hashtbl.add seen x ();
              out := x :: !out
            end)
          (Nstmt.arrays s))
      (Core.Asdg.stmts g);
    List.rev !out

  let deps_on g x =
    List.concat_map
      (fun e ->
        List.filter_map
          (fun (l : Core.Dep.label) -> if l.var = x then Some (e, l) else None)
          (Core.Asdg.labels g (fst e) (snd e)))
      (Core.Asdg.edges g)

  let stmts_referencing g x =
    let out = ref [] in
    Array.iteri
      (fun i s -> if List.mem x (Nstmt.arrays s) then out := i :: !out)
      (Core.Asdg.stmts g);
    List.rev !out
end

let check_tables_against_scans what prog =
  List.iteri
    (fun bi stmts ->
      let g = Core.Asdg.build stmts in
      let fail fn x = Alcotest.failf "%s, block %d: %s %s differs" what bi fn x in
      let vars = Core.Asdg.vars g in
      if vars <> Naive_asdg.vars g then fail "vars" "";
      List.iter
        (fun x ->
          if Core.Asdg.stmts_referencing g x <> Naive_asdg.stmts_referencing g x
          then fail "stmts_referencing" x;
          if Core.Asdg.deps_on g x <> Naive_asdg.deps_on g x then fail "deps_on" x)
        ("no-such-array" :: vars))
    (Prog.blocks prog)

let test_asdg_tables () =
  let corpus =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".zir")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus is not empty" true (corpus <> []);
  List.iter
    (fun f ->
      match Fuzz.Repro.load (Filename.concat "corpus" f) with
      | Ok prog -> check_tables_against_scans f prog
      | Error m -> Alcotest.failf "%s: %s" f m)
    corpus;
  let rng = Support.Prng.create 2024L in
  for i = 1 to 200 do
    check_tables_against_scans
      (Printf.sprintf "generated program %d" i)
      (Fuzz.Gen.generate rng)
  done

let suites =
  [
    ( "core.fig2",
      [
        Alcotest.test_case "UDVs" `Quick test_fig2_udvs;
        Alcotest.test_case "loop structure (-2,-1)" `Quick test_fig2_loop_structure;
        Alcotest.test_case "fusion blocked by flow" `Quick test_fig2_fusion_blocked;
      ] );
    ( "core.loopstruct",
      [
        Alcotest.test_case "default row-major" `Quick test_ls_default;
        Alcotest.test_case "reversal" `Quick test_ls_reversal;
        Alcotest.test_case "interchange" `Quick test_ls_interchange;
        Alcotest.test_case "NOSOLUTION" `Quick test_ls_nosolution;
        QCheck_alcotest.to_alcotest prop_ls_sound;
        QCheck_alcotest.to_alcotest prop_ls_complete_on_lexpos;
      ] );
    ( "core.weights",
      [ Alcotest.test_case "reference weights" `Quick test_weights ] );
    ( "core.fusion",
      [
        Alcotest.test_case "GROW" `Quick test_grow;
        Alcotest.test_case "fusion pulls chain via GROW" `Quick test_fusion_uses_grow;
        Alcotest.test_case "compiler temp contraction" `Quick test_compiler_temp_contraction;
        Alcotest.test_case "upward-exposed read" `Quick test_upward_exposed;
        Alcotest.test_case "region mismatch" `Quick test_region_mismatch;
        Alcotest.test_case "greedy pairwise" `Quick test_greedy_pairwise;
        Alcotest.test_case "greedy avoids cycles" `Quick test_greedy_no_cycle;
        Alcotest.test_case "may_fuse veto" `Quick test_may_fuse_veto;
        QCheck_alcotest.to_alcotest prop_fusion_valid;
        QCheck_alcotest.to_alcotest prop_locality_fusion_valid;
        QCheck_alcotest.to_alcotest prop_contracted_deps_null;
      ] );
    ( "core.contraction",
      [ Alcotest.test_case "partial (extension)" `Quick test_partial_contraction ] );
    ( "core.asdg",
      [
        Alcotest.test_case "per-array tables == naive scans" `Quick
          test_asdg_tables;
      ] );
  ]
