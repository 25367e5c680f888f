(* The SPMD backend: checksum agreement with the sequential
   interpreter across the suite, exact charged-traffic agreement with
   the analytical model, wire-level accounting on a hand-built
   exchange, and the engine's declared domain limits. *)

open Ir
module Vec = Support.Vec

let v = Vec.of_list
let interior = Region.of_bounds [ (1, 8); (1, 8) ]
let padded = Region.of_bounds [ (0, 9); (0, 9) ]

let user name = { Prog.name; bounds = padded; kind = Prog.User }

let prog_of ?(live = [ "Z" ]) ?(scalars = []) body =
  {
    Prog.name = "s";
    arrays = List.map user [ "A"; "B"; "C"; "Z" ];
    scalars;
    body;
    live_out = live;
  }

let astmt lhs rhs = Prog.Astmt (Nstmt.make ~region:interior ~lhs rhs)

let compile ?(level = Compilers.Driver.Baseline) prog =
  Compilers.Driver.compile_exn_opts (Compilers.Driver.opts level) prog

let run ?(procs = 4) ?(cachesim = false) c =
  Spmd.execute
    { Spmd.machine = Machine.t3e; procs; opts = Comm.Model.all_on; cachesim }
    c

let execute ?procs ?cachesim c = (run ?procs ?cachesim c).Spmd.report

let seq_checksum c = Exec.Interp.checksum (Exec.Interp.run c.Compilers.Driver.code)

(* Levels the agreement satellite covers: base .. c2+f3. *)
let levels = Compilers.Driver.[ Baseline; F1; C1; F2; F3; C2; C2F3 ]

let tiny_tile (b : Suite.bench) = if b.rank = 1 then 128 else 12

(* --- suite-wide checksum equality ---------------------------------- *)

(* For every benchmark x optimization level x processor count, the
   distributed run must produce bit-identical live-out values to the
   sequential interpreter on the same compiled program. *)
let test_suite_checksums (b : Suite.bench) () =
  let prog = Suite.program ~tile:(tiny_tile b) b in
  List.iter
    (fun level ->
      let c = compile ~level prog in
      let seq = seq_checksum c in
      List.iter
        (fun procs ->
          let r = execute ~procs c in
          Alcotest.(check string)
            (Printf.sprintf "%s @ %s x%d" b.name
               (Compilers.Driver.level_name level)
               procs)
            seq r.Spmd.checksum)
        [ 1; 4; 16 ])
    levels

(* --- executed traffic == modeled traffic --------------------------- *)

(* At full optimization the engine must charge exactly the messages
   and bytes the analytical model predicts, with nothing falling to
   the unscheduled-fill path. *)
let test_suite_model_agreement (b : Suite.bench) () =
  let prog = Suite.program ~tile:(tiny_tile b) b in
  let c = compile ~level:Compilers.Driver.C2F3 prog in
  let seq = seq_checksum c in
  List.iter
    (fun procs ->
      let r = execute ~procs c in
      let a =
        Comm.Model.analyze ~machine:Machine.t3e ~procs ~opts:Comm.Model.all_on c
      in
      let tag fmt = Printf.sprintf ("%s x%d " ^^ fmt) b.name procs in
      Alcotest.(check string) (tag "checksum") seq r.Spmd.checksum;
      Alcotest.(check int)
        (tag "messages") a.Comm.Model.messages r.Spmd.charged_messages;
      Alcotest.(check int) (tag "bytes") a.Comm.Model.bytes r.Spmd.charged_bytes;
      Alcotest.(check int) (tag "unmodeled") 0 r.Spmd.unmodeled_exchanges)
    [ 4; 16 ]

(* --- wire-level accounting on a hand-built exchange ---------------- *)

let test_wire_accounting () =
  (* Z := A@(-1,0) over [1..8]^2, arrays padded [0..9]^2, 4 processors
     in a 2x2 grid: chunks split [0..9] into [0..4] and [5..9].

     Charged (model currency): one north exchange of one 8-element
     region row = 1 message, 64 bytes.

     Wire: only the two processors in the lower grid row have a north
     neighbor, and each receives its 5-column slab of the boundary row
     = 2 messages, 2 x 5 x 8 = 80 bytes. *)
  let c = compile (prog_of [ astmt "Z" Expr.(Ref ("A", v [ -1; 0 ])) ]) in
  let r = execute ~procs:4 c in
  Alcotest.(check int) "charged messages" 1 r.Spmd.charged_messages;
  Alcotest.(check int) "charged bytes" 64 r.Spmd.charged_bytes;
  Alcotest.(check int) "wire messages" 2 r.Spmd.wire_messages;
  Alcotest.(check int) "wire bytes" 80 r.Spmd.wire_bytes;
  Alcotest.(check int) "ghost fills" 2 r.Spmd.ghost_fills;
  Alcotest.(check int) "unmodeled" 0 r.Spmd.unmodeled_exchanges;
  Alcotest.(check string) "checksum" (seq_checksum c) r.Spmd.checksum

let test_single_proc_has_no_wire_traffic () =
  let c = compile (prog_of [ astmt "Z" Expr.(Ref ("A", v [ -1; 0 ])) ]) in
  let r = execute ~procs:1 c in
  Alcotest.(check int) "wire messages" 0 r.Spmd.wire_messages;
  Alcotest.(check int) "wire bytes" 0 r.Spmd.wire_bytes;
  Alcotest.(check string) "checksum" (seq_checksum c) r.Spmd.checksum

(* --- reductions ---------------------------------------------------- *)

let test_reduction_tree_messages () =
  (* A log2(4) = 2-stage combining tree is charged; on the wire the
     binomial tree moves p-1 = 3 one-double partial sums. *)
  let c =
    compile
      (prog_of ~live:[ "s" ] ~scalars:[ ("s", 0.0) ]
         [
           astmt "Z" Expr.(Binop (Add, Idx 1, Idx 2));
           Prog.Reduce
             {
               target = "s";
               op = Prog.Rsum;
               region = interior;
               arg = Expr.(Ref ("Z", v [ 0; 0 ]));
             };
         ])
  in
  let r = execute ~procs:4 c in
  Alcotest.(check int) "charged tree messages" 2 r.Spmd.reduction_messages;
  Alcotest.(check int) "wire messages" 3 r.Spmd.wire_messages;
  Alcotest.(check int) "wire bytes" 24 r.Spmd.wire_bytes;
  Alcotest.(check string) "checksum" (seq_checksum c) r.Spmd.checksum

(* --- cache simulation ---------------------------------------------- *)

let test_cachesim_reports_stats () =
  let c = compile (prog_of [ astmt "Z" Expr.(Ref ("A", v [ -1; 0 ])) ]) in
  let r = execute ~procs:4 ~cachesim:true c in
  (match r.Spmd.l1 with
  | Some s ->
      Alcotest.(check bool) "l1 accessed" true (s.Cachesim.Cache.accesses > 0)
  | None -> Alcotest.fail "expected L1 stats with cachesim on");
  Alcotest.(check string) "checksum unchanged" (seq_checksum c) r.Spmd.checksum;
  let off = execute ~procs:4 c in
  Alcotest.(check bool) "no stats without cachesim" true (off.Spmd.l1 = None)

(* --- domain limits ------------------------------------------------- *)

let test_unsupported_deep_halo () =
  (* 8 processors split [0..15] into 2-element chunks: a depth-3 halo
     cannot be materialized.  4 processors leave 4-element chunks and
     the same program runs fine. *)
  let bounds = Region.of_bounds [ (0, 15) ] in
  let prog =
    {
      Prog.name = "deep";
      arrays =
        [
          { Prog.name = "A"; bounds; kind = Prog.User };
          { Prog.name = "Z"; bounds; kind = Prog.User };
        ];
      scalars = [];
      body =
        [
          Prog.Astmt
            (Nstmt.make
               ~region:(Region.of_bounds [ (3, 12) ])
               ~lhs:"Z"
               Expr.(Ref ("A", v [ -3 ])));
        ];
      live_out = [ "Z" ];
    }
  in
  let c = compile prog in
  Alcotest.(check bool) "raises Unsupported" true
    (match execute ~procs:8 c with
    | (_ : Spmd.report) -> false
    | exception Spmd.Unsupported _ -> true);
  let r = execute ~procs:4 c in
  Alcotest.(check string) "ok on 4" (seq_checksum c) r.Spmd.checksum

(* The exact text of every [Unsupported] the engine can reach. *)
let unsupported_text c ~procs =
  match execute ~procs c with
  | (_ : Spmd.report) -> Alcotest.fail "expected Unsupported"
  | exception Spmd.Unsupported msg -> msg

let test_unsupported_texts () =
  let bounds = Region.of_bounds [ (0, 15) ] in
  let prog1 body =
    {
      Prog.name = "u";
      arrays =
        [
          { Prog.name = "A"; bounds; kind = Prog.User };
          { Prog.name = "Z"; bounds; kind = Prog.User };
        ];
      scalars = [ ("s", 0.0) ];
      body;
      live_out = [ "Z"; "s" ];
    }
  in
  let stmt ?lhs_off lo hi rhs =
    Prog.Astmt
      (Nstmt.make ~region:(Region.of_bounds [ (lo, hi) ]) ~lhs:"Z" ?lhs_off rhs)
  in
  Alcotest.(check string) "deep halo"
    "halo of A (depth 3) exceeds the smallest chunk in dim 1"
    (unsupported_text ~procs:8
       (compile (prog1 [ stmt 3 12 Expr.(Ref ("A", v [ -3 ])) ])));
  Alcotest.(check string) "write offset in a split dimension"
    "write offset 1 in distributed dimension 1 (Z)"
    (unsupported_text ~procs:4
       (compile
          (prog1 [ stmt ~lhs_off:(v [ 1 ]) 0 14 Expr.(Ref ("A", v [ 0 ])) ])));
  Alcotest.(check string) "a rank with no arrays"
    "iteration of rank 2 has no arrays to derive a grid from"
    (unsupported_text ~procs:4
       (compile
          (prog1
             [
               stmt 0 15 Expr.(Ref ("A", v [ 0 ]));
               Prog.Reduce
                 {
                   target = "s";
                   op = Prog.Rsum;
                   region = Region.of_bounds [ (1, 4); (1, 4) ];
                   arg = Expr.Const 1.0;
                 };
             ])))

(* --- the engine path zapc --spmd and zapd Run take ----------------- *)

(* test/golden/spmd_engine.txt pins one line per configuration of the
   run zapc --spmd and zapd Run make (cache simulator on, all
   optimizations): the suite at bench spmd --tiny's tiles, c2+f3, t3e,
   4 and 16 processors.  Floats are printed with %h, so the clock, the
   cache counts and the slowest processor's communication time must
   come back bit for bit. *)
let engine_line (b : Suite.bench) procs =
  let tile = if b.rank = 1 then 256 else 16 in
  let c = compile ~level:Compilers.Driver.C2F3 (Suite.program ~tile b) in
  let { Spmd.report = r; per_proc } = run ~procs ~cachesim:true c in
  let stats = function
    | None -> "none"
    | Some (s : Cachesim.Cache.stats) ->
        Printf.sprintf "%d/%d/%d" s.accesses s.hits s.misses
  in
  let max_comm =
    Array.fold_left
      (fun acc (p : Spmd.proc_counters) -> max acc p.comm_ns)
      0.0 per_proc
  in
  Printf.sprintf
    "%s p%d checksum %s time_ns %h supersteps %d charged %d/%d wire %d/%d \
     reduction_messages %d unmodeled %d ghost_fills %d l1 %s l2 %s \
     max_comm_ns %h"
    b.name procs r.Spmd.checksum r.Spmd.time_ns r.Spmd.supersteps
    r.Spmd.charged_messages r.Spmd.charged_bytes r.Spmd.wire_messages
    r.Spmd.wire_bytes r.Spmd.reduction_messages r.Spmd.unmodeled_exchanges
    r.Spmd.ghost_fills (stats r.Spmd.l1) (stats r.Spmd.l2) max_comm

let engine_lines () =
  List.concat_map
    (fun b -> List.map (engine_line b) [ 4; 16 ])
    Suite.all

let test_engine_golden () =
  let ic = open_in_bin "golden/spmd_engine.txt" in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let want = String.split_on_char '\n' want |> List.filter (( <> ) "") in
  let got = engine_lines () in
  Alcotest.(check int) "line count" (List.length want) (List.length got);
  List.iter2
    (fun w g ->
      let key l =
        match String.split_on_char ' ' l with
        | b :: p :: _ -> b ^ " " ^ p
        | _ -> l
      in
      Alcotest.(check string) (key w) w g)
    want got

(* --- rank 3 -------------------------------------------------------- *)

let test_rank3_non_power_of_two () =
  match Suite.extras |> List.find_opt (fun b -> b.Suite.rank = 3) with
  | None -> ()
  | Some b ->
      let prog = Suite.program ~tile:12 b in
      let c = compile ~level:Compilers.Driver.C2F3 prog in
      let seq = seq_checksum c in
      List.iter
        (fun procs ->
          let r = execute ~procs c in
          let a =
            Comm.Model.analyze ~machine:Machine.t3e ~procs
              ~opts:Comm.Model.all_on c
          in
          Alcotest.(check string)
            (Printf.sprintf "checksum x%d" procs)
            seq r.Spmd.checksum;
          Alcotest.(check int)
            (Printf.sprintf "messages x%d" procs)
            a.Comm.Model.messages r.Spmd.charged_messages)
        [ 6; 12 ]

let suites =
  [
    ( "spmd.checksum",
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "%s == sequential (all levels, p in 1/4/16)"
               b.Suite.name)
            `Slow (test_suite_checksums b))
        Suite.all );
    ( "spmd.agreement",
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "%s traffic == model @ c2+f3" b.Suite.name)
            `Slow (test_suite_model_agreement b))
        Suite.all
      @ [
          Alcotest.test_case "rank-3 grid, procs 6 and 12" `Slow
            test_rank3_non_power_of_two;
        ] );
    ( "spmd.engine",
      [
        Alcotest.test_case "wire accounting" `Quick test_wire_accounting;
        Alcotest.test_case "single proc sends nothing" `Quick
          test_single_proc_has_no_wire_traffic;
        Alcotest.test_case "reduction tree" `Quick test_reduction_tree_messages;
        Alcotest.test_case "cache simulation" `Quick test_cachesim_reports_stats;
        Alcotest.test_case "deep halo unsupported" `Quick
          test_unsupported_deep_halo;
        Alcotest.test_case "unsupported error texts" `Quick
          test_unsupported_texts;
        Alcotest.test_case "engine path matches the golden" `Slow
          test_engine_golden;
      ] );
  ]
