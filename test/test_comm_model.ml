(* Communication model details: redundancy elimination, combining,
   pipelining windows, loop multipliers, reduction trees — plus a
   naive reference implementation of the cache for cross-checking. *)

open Ir
module Vec = Support.Vec

let v = Vec.of_list
let interior = Region.of_bounds [ (1, 8); (1, 8) ]
let padded = Region.of_bounds [ (0, 9); (0, 9) ]

let user name = { Prog.name; bounds = padded; kind = Prog.User }

let prog_of ?(live = [ "Z" ]) ?(scalars = []) body =
  {
    Prog.name = "c";
    arrays = List.map user [ "A"; "B"; "C"; "Z" ];
    scalars;
    body;
    live_out = live;
  }

let astmt lhs rhs = Prog.Astmt (Nstmt.make ~region:interior ~lhs rhs)

let analyze ?(opts = Comm.Model.vectorize_only) ?(procs = 4)
    ?(level = Compilers.Driver.Baseline) prog =
  let c = Compilers.Driver.compile_exn_opts (Compilers.Driver.opts level) prog in
  Comm.Model.analyze ~machine:Machine.t3e ~procs ~opts c

let test_redundancy_elimination () =
  (* two clusters both read A@north with no write of A in between: the
     second exchange is redundant *)
  let prog =
    prog_of
      [
        astmt "B" Expr.(Ref ("A", v [ -1; 0 ]));
        astmt "C" Expr.(Ref ("A", v [ -1; 0 ]));
        astmt "Z" Expr.(Binop (Add, Ref ("B", v [ 0; 0 ]), Ref ("C", v [ 0; 0 ])));
      ]
  in
  let plain = analyze prog in
  let redun =
    analyze ~opts:{ Comm.Model.vectorize_only with redundancy = true } prog
  in
  Alcotest.(check int) "2 without" 2 plain.Comm.Model.messages;
  Alcotest.(check int) "1 with" 1 redun.Comm.Model.messages

let test_redundancy_blocked_by_write () =
  (* a write to A between the two reads invalidates the ghosts *)
  let prog =
    prog_of
      [
        astmt "B" Expr.(Ref ("A", v [ -1; 0 ]));
        astmt "A" Expr.(Ref ("B", v [ 0; 0 ]));
        astmt "Z" Expr.(Ref ("A", v [ -1; 0 ]));
      ]
  in
  let redun =
    analyze ~opts:{ Comm.Model.vectorize_only with redundancy = true } prog
  in
  Alcotest.(check int) "both exchanges kept" 2 redun.Comm.Model.messages

let test_combining () =
  (* one statement reads two arrays from the same neighbor: combining
     shares the message (one latency), bytes unchanged *)
  let prog =
    prog_of
      [
        astmt "Z"
          Expr.(Binop (Add, Ref ("A", v [ -1; 0 ]), Ref ("B", v [ -1; 0 ])));
      ]
  in
  let plain = analyze prog in
  let comb =
    analyze ~opts:{ Comm.Model.vectorize_only with combining = true } prog
  in
  Alcotest.(check int) "2 messages plain" 2 plain.Comm.Model.messages;
  Alcotest.(check int) "1 message combined" 1 comb.Comm.Model.messages;
  Alcotest.(check int) "bytes conserved" plain.Comm.Model.bytes
    comb.Comm.Model.bytes

let test_pipelining_window () =
  (* producer .. independent work .. consumer: with pipelining the
     independent cluster's compute hides part of the exchange *)
  let prog =
    prog_of
      [
        astmt "A" Expr.(Binop (Mul, Idx 1, Const 2.0));
        astmt "B" Expr.(Binop (Add, Idx 2, Idx 1));  (* independent work *)
        astmt "Z" Expr.(Binop (Add, Ref ("A", v [ -1; 0 ]), Ref ("B", v [ 0; 0 ])));
      ]
  in
  let raw = analyze prog in
  let piped =
    analyze ~opts:{ Comm.Model.vectorize_only with pipelining = true } prog
  in
  Alcotest.(check bool)
    "overlap reduces wait" true
    (piped.Comm.Model.effective_ns < raw.Comm.Model.effective_ns);
  Alcotest.(check bool)
    "floor keeps some cost" true
    (piped.Comm.Model.effective_ns > 0.0)

let test_loop_multiplier () =
  (* exchanges inside a 5-trip loop cost 5x *)
  let body = [ astmt "Z" Expr.(Ref ("A", v [ -1; 0 ])) ] in
  let once = prog_of body in
  let looped =
    prog_of [ Prog.Sloop { var = "t"; lo = 1; hi = 5; body } ]
  in
  let s1 = analyze once in
  let s5 = analyze looped in
  Alcotest.(check int) "5x messages" (5 * s1.Comm.Model.messages)
    s5.Comm.Model.messages;
  Alcotest.(check int) "5x bytes" (5 * s1.Comm.Model.bytes) s5.Comm.Model.bytes

let test_reduction_tree () =
  let prog =
    prog_of ~live:[ "s" ] ~scalars:[ ("s", 0.0) ]
      [
        astmt "Z" Expr.(Binop (Mul, Idx 1, Idx 2));
        Prog.Reduce
          { target = "s"; op = Prog.Rsum; region = interior;
            arg = Expr.(Ref ("Z", v [ 0; 0 ])) };
      ]
  in
  let s4 = analyze ~procs:4 prog in
  let s16 = analyze ~procs:16 prog in
  Alcotest.(check bool) "tree cost grows with p" true
    (s16.Comm.Model.reduction_ns > s4.Comm.Model.reduction_ns);
  (* log2: 16 procs needs twice the stages of 4 *)
  Alcotest.(check (float 1e-6))
    "log2 stages"
    (2.0 *. s4.Comm.Model.reduction_ns)
    s16.Comm.Model.reduction_ns

let test_contraction_kills_comm () =
  (* after c2, a contracted temporary is never exchanged; and offset-0
     programs communicate nothing but reductions *)
  let prog =
    prog_of
      [
        astmt "B" Expr.(Ref ("A", v [ 0; 0 ]));
        astmt "Z" Expr.(Ref ("B", v [ 0; 0 ]));
      ]
  in
  let s = analyze ~level:Compilers.Driver.C2 prog in
  Alcotest.(check int) "no messages" 0 s.Comm.Model.messages

let test_corner_ghost_bytes () =
  (* a diagonal offset needs a 1-element corner: 8 bytes *)
  let prog = prog_of [ astmt "Z" Expr.(Ref ("A", v [ -1; -1 ])) ] in
  let s = analyze prog in
  Alcotest.(check int) "corner" 8 s.Comm.Model.bytes;
  (* a 2-deep offset moves a 2-row boundary strip *)
  let deep = Region.of_bounds [ (3, 8); (1, 8) ] in
  let prog2 =
    prog_of
      [ Prog.Astmt (Nstmt.make ~region:deep ~lhs:"Z" Expr.(Ref ("A", v [ -2; 0 ]))) ]
  in
  let s2 = analyze prog2 in
  Alcotest.(check int) "2-deep row strip" (2 * 8 * 8) s2.Comm.Model.bytes

let test_cluster_cost_positive () =
  let prog = prog_of [ astmt "Z" Expr.(Binop (Add, Idx 1, Idx 2)) ] in
  let c = Compilers.Driver.compile_exn_opts (Compilers.Driver.opts Compilers.Driver.Baseline) prog in
  match c.Compilers.Driver.plan with
  | [ bp ] ->
      let p = bp.Sir.Scalarize.partition in
      let rep = List.hd (List.hd (Core.Partition.clusters p)) in
      Alcotest.(check bool) "positive" true
        (Comm.Model.cluster_cost_ns ~machine:Machine.t3e p rep > 0.0)
  | _ -> Alcotest.fail "one block expected"

(* ------------------------------------------------------------------ *)
(* Cache simulator vs a naive reference model                          *)
(* ------------------------------------------------------------------ *)

(* A deliberately slow but obviously correct set-associative LRU cache:
   each set is a list of lines, most recently used first. *)
module Naive = struct
  type t = {
    sets : int;
    assoc : int;
    line : int;
    mutable state : int list array;
    mutable hits : int;
    mutable accesses : int;
  }

  let create ~size ~line ~assoc =
    let sets = size / (line * assoc) in
    {
      sets;
      assoc;
      line;
      state = Array.make sets [];
      hits = 0;
      accesses = 0;
    }

  let access t addr =
    let ln = addr / t.line in
    let set = ln mod t.sets in
    t.accesses <- t.accesses + 1;
    let lines = t.state.(set) in
    if List.mem ln lines then begin
      t.hits <- t.hits + 1;
      t.state.(set) <- ln :: List.filter (fun x -> x <> ln) lines;
      true
    end
    else begin
      let kept =
        if List.length lines >= t.assoc then
          List.filteri (fun i _ -> i < t.assoc - 1) lines
        else lines
      in
      t.state.(set) <- ln :: kept;
      false
    end
end

let prop_cache_matches_naive =
  QCheck.Test.make ~name:"cache simulator == naive LRU reference" ~count:300
    QCheck.(
      pair
        (oneofl [ (256, 32, 1); (512, 32, 2); (1024, 64, 4) ])
        (list_of_size Gen.(int_range 1 300) (int_range 0 8192)))
    (fun ((size, line, assoc), addrs) ->
      let fast =
        Cachesim.Cache.create
          { Cachesim.Cache.size_bytes = size; line_bytes = line; assoc }
      in
      let slow = Naive.create ~size ~line ~assoc in
      List.for_all
        (fun a -> Cachesim.Cache.access fast ~addr:a = Naive.access slow a)
        addrs)

(* Seeded random streams through every cache geometry the machines
   use, plus associativity 1-4 at a power-of-two and a
   non-power-of-two set count: every access must hit or miss exactly
   as in the reference, and the stats must agree. *)
let test_cache_differential () =
  let geometries =
    List.concat_map
      (fun (m : Machine.t) ->
        let l1 = m.Machine.l1 in
        (m.Machine.name ^ " l1", l1)
        :: Option.to_list
             (Option.map (fun l2 -> (m.Machine.name ^ " l2", l2)) m.Machine.l2))
      Machine.all
    @ List.concat_map
        (fun assoc ->
          List.map
            (fun sets ->
              ( Printf.sprintf "assoc %d, %d sets" assoc sets,
                {
                  Cachesim.Cache.size_bytes = 32 * assoc * sets;
                  line_bytes = 32;
                  assoc;
                } ))
            [ 16; 24 ])
        [ 1; 2; 3; 4 ]
  in
  List.iteri
    (fun gi (name, (cfg : Cachesim.Cache.config)) ->
      let rng = Random.State.make [| 17; gi |] in
      let span = 4 * cfg.Cachesim.Cache.size_bytes in
      let fast = Cachesim.Cache.create cfg in
      let slow =
        Naive.create ~size:cfg.Cachesim.Cache.size_bytes
          ~line:cfg.Cachesim.Cache.line_bytes ~assoc:cfg.Cachesim.Cache.assoc
      in
      (* runs of unit-stride, strided and scattered addresses *)
      for run = 1 to 200 do
        let start = Random.State.int rng span in
        let stride =
          match Random.State.int rng 3 with
          | 0 -> 8
          | 1 -> cfg.Cachesim.Cache.line_bytes * (1 + Random.State.int rng 4)
          | _ -> 0
        in
        for k = 0 to 49 do
          let addr =
            if stride = 0 then Random.State.int rng span else start + (k * stride)
          in
          let hit = Cachesim.Cache.access fast ~addr in
          if hit <> Naive.access slow addr then
            Alcotest.failf "%s: access %d of run %d (addr %d): hit=%b" name k
              run addr hit
        done
      done;
      let st = Cachesim.Cache.stats fast in
      Alcotest.(check (list int))
        (name ^ ": accesses, hits, misses")
        [ slow.Naive.accesses; slow.Naive.hits; slow.Naive.accesses - slow.Naive.hits ]
        [ st.Cachesim.Cache.accesses; st.Cachesim.Cache.hits; st.Cachesim.Cache.misses ])
    geometries

(* --- Dist: grid factorization, split dims, neighbor directions ---- *)

let check_per_dim msg ~rank ~procs expect =
  let d = Comm.Dist.make ~rank ~procs in
  Alcotest.(check (array int)) msg (Array.of_list expect) (Comm.Dist.per_dim d)

let test_dist_factorization () =
  check_per_dim "6 over rank 3" ~rank:3 ~procs:6 [ 2; 3; 1 ];
  check_per_dim "12 over rank 3" ~rank:3 ~procs:12 [ 2; 2; 3 ];
  check_per_dim "16 over rank 3" ~rank:3 ~procs:16 [ 4; 2; 2 ];
  check_per_dim "12 over rank 2" ~rank:2 ~procs:12 [ 6; 2 ];
  check_per_dim "6 over rank 2" ~rank:2 ~procs:6 [ 2; 3 ];
  check_per_dim "1 over rank 3" ~rank:3 ~procs:1 [ 1; 1; 1 ]

let test_dist_split_and_remote_dir () =
  (* 6 processors over rank 3: 2x3x1 — the third dimension is serial *)
  let d = Comm.Dist.make ~rank:3 ~procs:6 in
  Alcotest.(check bool) "dim 1 split" true (Comm.Dist.dim_split d 1);
  Alcotest.(check bool) "dim 2 split" true (Comm.Dist.dim_split d 2);
  Alcotest.(check bool) "dim 3 serial" false (Comm.Dist.dim_split d 3);
  let dir off = Comm.Dist.remote_dir d (v off) in
  Alcotest.(check (option (array int)))
    "offset only in the serial dim is local" None
    (dir [ 0; 0; -1 ]);
  Alcotest.(check (option (array int)))
    "split components kept, serial dropped"
    (Some [| 0; 1; 0 |])
    (dir [ 0; 2; -1 ]);
  Alcotest.(check (option (array int)))
    "signs, not magnitudes"
    (Some [| -1; 1; 0 |])
    (dir [ -3; 1; 0 ]);
  Alcotest.(check (option (array int))) "null offset" None (dir [ 0; 0; 0 ]);
  (* 12 over rank 2 (6x2): both dims split *)
  let d2 = Comm.Dist.make ~rank:2 ~procs:12 in
  Alcotest.(check (option (array int)))
    "rank 2 diagonal"
    (Some [| 1; -1 |])
    (Comm.Dist.remote_dir d2 (v [ 1; -1 ]));
  Alcotest.check_raises "rank mismatch rejected"
    (Invalid_argument "Dist.remote_dir: rank mismatch") (fun () ->
      ignore (Comm.Dist.remote_dir d2 (v [ 1; 0; 0 ])))

let suites =
  [
    ( "comm.model",
      [
        Alcotest.test_case "redundancy elimination" `Quick test_redundancy_elimination;
        Alcotest.test_case "redundancy blocked by write" `Quick test_redundancy_blocked_by_write;
        Alcotest.test_case "message combining" `Quick test_combining;
        Alcotest.test_case "pipelining window" `Quick test_pipelining_window;
        Alcotest.test_case "loop multiplier" `Quick test_loop_multiplier;
        Alcotest.test_case "reduction tree" `Quick test_reduction_tree;
        Alcotest.test_case "contraction kills comm" `Quick test_contraction_kills_comm;
        Alcotest.test_case "ghost bytes" `Quick test_corner_ghost_bytes;
        Alcotest.test_case "cluster cost" `Quick test_cluster_cost_positive;
      ] );
    ( "comm.dist",
      [
        Alcotest.test_case "factorization" `Quick test_dist_factorization;
        Alcotest.test_case "split dims and remote dirs" `Quick
          test_dist_split_and_remote_dir;
      ] );
    ( "cachesim.reference",
      [
        QCheck_alcotest.to_alcotest prop_cache_matches_naive;
        Alcotest.test_case "every geometry == naive LRU" `Quick
          test_cache_differential;
      ] );
  ]
