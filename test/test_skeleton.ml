(* Ir.Prog.skeleton is the one owner of the block decision: which
   statements form block k, and which reductions trail it.  The
   flush-based walkers below are the per-layer copies that used to
   re-derive it (Prog.blocks, Prog.reduce_stmts, Prog.trailing_reduces,
   Prog.confined_arrays*, Comm.Model.block_multipliers and the SPMD
   engine's node numbering); they stay here as oracles only, and every
   answer derived from the skeleton must equal theirs. *)

open Ir

module Oracle = struct
  let blocks (t : Prog.t) =
    let out = ref [] in
    let cur = ref [] in
    let flush () =
      if !cur <> [] then begin
        out := List.rev !cur :: !out;
        cur := []
      end
    in
    let rec go = function
      | [] -> flush ()
      | Prog.Astmt s :: tl ->
          cur := s :: !cur;
          go tl
      | Prog.Sloop { body; _ } :: tl ->
          flush ();
          go body;
          flush ();
          go tl
      | (Prog.Reduce _ | Prog.Sassign _) :: tl ->
          flush ();
          go tl
    in
    go t.body;
    List.rev !out

  let reduce_stmts (t : Prog.t) =
    let out = ref [] in
    let rec scan = function
      | [] -> ()
      | Prog.Reduce { target; op; region; arg } :: tl ->
          out := (op, region, target, arg) :: !out;
          scan tl
      | Prog.Sloop { body; _ } :: tl ->
          scan body;
          scan tl
      | (Prog.Astmt _ | Prog.Sassign _) :: tl -> scan tl
    in
    scan t.body;
    List.rev !out

  (* a reduce trails a block when it follows the block's final Astmt
     with no other statement in between *)
  let trailing_reduces (t : Prog.t) =
    let out = ref [] in
    let block_idx = ref (-1) in
    let reduce_idx = ref (-1) in
    let rec go in_run trailing = function
      | [] -> ()
      | Prog.Astmt _ :: tl ->
          if not in_run then incr block_idx;
          go true false tl
      | Prog.Reduce _ :: tl ->
          incr reduce_idx;
          if in_run || trailing then out := (!block_idx, !reduce_idx) :: !out;
          go false (in_run || trailing) tl
      | Prog.Sloop { body; _ } :: tl ->
          go false false body;
          go false false tl
      | Prog.Sassign _ :: tl -> go false false tl
    in
    go false false t.body;
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (b, r) ->
        let cur = try Hashtbl.find tbl b with Not_found -> [] in
        Hashtbl.replace tbl b (r :: cur))
      !out;
    Hashtbl.fold (fun b rs acc -> (b, List.sort compare rs) :: acc) tbl []
    |> List.sort compare

  let block_of_ref t x =
    let in_blocks =
      blocks t
      |> List.mapi (fun i run -> (i, run))
      |> List.filter_map (fun (i, run) ->
             if List.exists (fun s -> List.mem x (Nstmt.arrays s)) run then
               Some i
             else None)
    in
    let outside =
      List.exists
        (fun (_, _, _, arg) -> List.mem x (Expr.ref_names arg))
        (reduce_stmts t)
    in
    (in_blocks, outside)

  let confined_arrays (t : Prog.t) =
    List.filter_map
      (fun (info : Prog.array_info) ->
        let x = info.name in
        if Prog.is_live_out t x then None
        else
          match block_of_ref t x with [ b ], false -> Some (x, b) | _ -> None)
      t.arrays

  let confined_arrays_allowing_reduces (t : Prog.t) =
    let trailing = trailing_reduces t in
    let reduces = Array.of_list (reduce_stmts t) in
    List.filter_map
      (fun (info : Prog.array_info) ->
        let x = info.name in
        if Prog.is_live_out t x then None
        else
          match block_of_ref t x with
          | [ b ], outside ->
              let allowed = try List.assoc b trailing with Not_found -> [] in
              let ok = ref true in
              Array.iteri
                (fun ri (_, _, _, arg) ->
                  if List.mem x (Expr.ref_names arg) && not (List.mem ri allowed)
                  then ok := false)
                reduces;
              if (not outside) || !ok then Some (x, b) else None
          | _ -> None)
      t.arrays

  let block_multipliers (t : Prog.t) =
    let block_mult = Array.make (List.length (blocks t)) 0 in
    let reductions = ref 0 in
    let next_block = ref 0 in
    let rec walk mult pending = function
      | [] -> flush mult pending
      | Prog.Astmt _ :: tl -> walk mult (pending + 1) tl
      | Prog.Sloop { lo; hi; body; _ } :: tl ->
          flush mult pending;
          walk (mult * max 0 (hi - lo + 1)) 0 body;
          walk mult 0 tl
      | Prog.Reduce _ :: tl ->
          flush mult pending;
          reductions := !reductions + mult;
          walk mult 0 tl
      | Prog.Sassign _ :: tl ->
          flush mult pending;
          walk mult 0 tl
    and flush mult pending =
      if pending > 0 then begin
        block_mult.(!next_block) <- mult;
        incr next_block
      end
    in
    walk 1 0 t.body;
    (block_mult, !reductions)

  (* the SPMD engine's statically numbered execution tree *)
  type node =
    | Nblock of int
    | Nreduce of string
    | Nsassign of string
    | Nsloop of string * node list

  let annotate (t : Prog.t) =
    let next = ref 0 in
    let rec go stmts =
      let flush pending acc =
        if pending = [] then acc
        else begin
          let bi = !next in
          incr next;
          Nblock bi :: acc
        end
      in
      let rec aux pending acc = function
        | [] -> List.rev (flush pending acc)
        | Prog.Astmt s :: tl -> aux (s :: pending) acc tl
        | Prog.Sloop { var; body; _ } :: tl ->
            let acc = flush pending acc in
            aux [] (Nsloop (var, go body) :: acc) tl
        | Prog.Reduce { target; _ } :: tl ->
            aux [] (Nreduce target :: flush pending acc) tl
        | Prog.Sassign (x, _) :: tl ->
            aux [] (Nsassign x :: flush pending acc) tl
      in
      aux [] [] stmts
    in
    go t.body
end

(* The skeleton in the shape of the engine's old numbered tree: a block
   followed by its trailing reductions as separate steps. *)
let rec annotated nodes =
  List.concat_map
    (function
      | Prog.Block b ->
          Oracle.Nblock b.index
          :: List.map
               (fun (r : Prog.reduction) -> Oracle.Nreduce r.target)
               b.trailing
      | Prog.Reduction r -> [ Oracle.Nreduce r.target ]
      | Prog.Scalar (x, _) -> [ Oracle.Nsassign x ]
      | Prog.Loop { var; body; _ } -> [ Oracle.Nsloop (var, annotated body) ])
    nodes

let check_program what (p : Prog.t) =
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.failf "%s: %s" what m) fmt in
  let sk = Prog.skeleton p in
  let blocks =
    List.rev
      (Prog.fold (fun acc -> function Prog.Block b -> b :: acc | _ -> acc) [] sk)
  in
  List.iteri
    (fun i (b : Prog.block) ->
      if b.index <> i then fail "block %d visited at position %d" b.index i)
    blocks;
  if Prog.blocks p <> Oracle.blocks p then fail "blocks differ";
  let reductions = Prog.reductions p in
  List.iteri
    (fun i (r : Prog.reduction) ->
      if r.index <> i then fail "reduction %d listed at position %d" r.index i)
    reductions;
  if
    List.map
      (fun (r : Prog.reduction) -> (r.op, r.region, r.target, r.arg))
      reductions
    <> Oracle.reduce_stmts p
  then fail "reductions differ";
  let trailing =
    List.filter_map
      (fun (b : Prog.block) ->
        match b.trailing with
        | [] -> None
        | rs ->
            Some (b.index, List.map (fun (r : Prog.reduction) -> r.index) rs))
      blocks
  in
  if trailing <> Oracle.trailing_reduces p then
    fail "trailing reductions differ";
  if Prog.confined_arrays p <> Oracle.confined_arrays p then
    fail "confined arrays differ";
  if
    Prog.confined_arrays_allowing_reduces p sk
    <> Oracle.confined_arrays_allowing_reduces p
  then fail "confined arrays allowing reduces differ";
  if Comm.Model.block_multipliers sk <> Oracle.block_multipliers p then
    fail "block multipliers differ";
  if annotated sk <> Oracle.annotate p then fail "SPMD numbering differs";
  let q = Prog.map_blocks (fun _ ss -> List.map (fun s -> Prog.Astmt s) ss) p in
  if q <> p then fail "map_blocks identity is not a round trip";
  if Prog.fingerprint q <> Prog.fingerprint p then fail "fingerprint moved"

(* The two shapes a numbering slip would hide in: a loop body's block
   must come before the block after the loop, and a reduction after a
   scalar assignment trails nothing. *)
let test_pinned_shapes () =
  let region = Region.of_bounds [ (1, 4) ] in
  let a lhs = Prog.Astmt (Nstmt.make ~region ~lhs (Expr.Const 1.0)) in
  let red target =
    Prog.Reduce
      {
        target;
        op = Prog.Rsum;
        region;
        arg = Expr.Ref ("A", Support.Vec.of_list [ 0 ]);
      }
  in
  let p =
    {
      Prog.name = "shapes";
      arrays =
        List.map
          (fun name ->
            {
              Prog.name;
              bounds = Region.of_bounds [ (0, 5) ];
              kind = Prog.User;
            })
          [ "A"; "B" ];
      scalars = [ ("s", 0.0); ("u", 0.0) ];
      body =
        [
          Prog.Sloop { var = "t"; lo = 1; hi = 3; body = [ a "A"; red "s" ] };
          a "B";
          Prog.Sassign ("u", Expr.Const 2.0);
          red "u";
        ];
      live_out = [ "A"; "B"; "s"; "u" ];
    }
  in
  (match Prog.validate p with Ok () -> () | Error e -> Alcotest.fail e);
  check_program "shapes" p;
  match Prog.skeleton p with
  | [
   Prog.Loop
     {
       body = [ Prog.Block { index = 0; trailing = [ { index = 0; _ } ]; _ } ];
       _;
     };
   Prog.Block { index = 1; trailing = []; _ };
   Prog.Scalar ("u", _);
   Prog.Reduction { index = 1; target = "u"; _ };
  ] ->
      Alcotest.(check (pair (array int) int))
        "multipliers" ([| 3; 1 |], 4)
        (Comm.Model.block_multipliers (Prog.skeleton p))
  | _ -> Alcotest.fail "unexpected skeleton"

let test_corpus () =
  let files =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".zir")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus is not empty" true (files <> []);
  List.iter
    (fun f ->
      match Fuzz.Repro.load (Filename.concat "corpus" f) with
      | Ok p -> check_program f p
      | Error m -> Alcotest.failf "%s: %s" f m)
    files

let test_suite () =
  List.iter
    (fun (b : Suite.bench) ->
      check_program b.Suite.name (Suite.program b);
      check_program (b.Suite.name ^ " tile 16") (Suite.program ~tile:16 b))
    (Suite.all @ Suite.extras);
  List.iter
    (fun (f : Suite.Fragments.t) ->
      check_program
        (Printf.sprintf "fragment %d" f.Suite.Fragments.id)
        (fst (Suite.Fragments.block f)))
    Suite.Fragments.all

let test_generated () =
  let rng = Support.Prng.create 23L in
  for i = 1 to 200 do
    check_program
      (Printf.sprintf "generated program %d" i)
      (Fuzz.Gen.generate rng)
  done;
  for i = 1 to 100 do
    check_program
      (Printf.sprintf "trace program %d" i)
      (Fuzz.Gen.generate_trace rng)
  done

let suites =
  [
    ( "ir.skeleton",
      [
        Alcotest.test_case "pinned shapes" `Quick test_pinned_shapes;
        Alcotest.test_case "corpus equals the walkers" `Quick test_corpus;
        Alcotest.test_case "suite equals the walkers" `Quick test_suite;
        Alcotest.test_case "generated equal the walkers" `Quick test_generated;
      ] );
  ]
