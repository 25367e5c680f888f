(* Cache simulator, machine models, communication model. *)

open Cachesim

let cfg ~size ~line ~assoc =
  { Cache.size_bytes = size; line_bytes = line; assoc }

let test_cache_geometry () =
  Alcotest.(check int)
    "sets" 64
    (Cache.config_sets (cfg ~size:(8 * 1024) ~line:32 ~assoc:4));
  Alcotest.check_raises "bad line"
    (Invalid_argument "Cache: line size must be a power of two") (fun () ->
      ignore (Cache.config_sets (cfg ~size:1024 ~line:24 ~assoc:1)))

let test_cache_hit_miss () =
  let c = Cache.create (cfg ~size:1024 ~line:32 ~assoc:2) in
  Alcotest.(check bool) "cold miss" false (Cache.access c ~addr:0);
  Alcotest.(check bool) "same line hits" true (Cache.access c ~addr:8);
  Alcotest.(check bool) "line granularity" true (Cache.access c ~addr:31);
  Alcotest.(check bool) "next line misses" false (Cache.access c ~addr:32);
  let s = Cache.stats c in
  Alcotest.(check int) "accesses" 4 s.Cache.accesses;
  Alcotest.(check int) "hits" 2 s.Cache.hits

let test_cache_lru () =
  (* 2-way set: lines mapping to set 0 are multiples of 32*16=512 for a
     1024B/32B/2-way cache (16 sets). *)
  let c = Cache.create (cfg ~size:1024 ~line:32 ~assoc:2) in
  ignore (Cache.access c ~addr:0);      (* set 0: A *)
  ignore (Cache.access c ~addr:512);    (* set 0: B *)
  Alcotest.(check bool) "A still resident" true (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:1024);   (* set 0: C evicts B (LRU) *)
  Alcotest.(check bool) "A survives" true (Cache.access c ~addr:0);
  Alcotest.(check bool) "B evicted" false (Cache.access c ~addr:512)

let test_cache_direct_mapped () =
  let c = Cache.create (cfg ~size:64 ~line:32 ~assoc:1) in
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:64);  (* conflicts with 0 *)
  Alcotest.(check bool) "conflict evicts" false (Cache.access c ~addr:0)

let prop_cache_counts_consistent =
  QCheck.Test.make ~name:"hits + misses = accesses; re-touch always hits"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 4096))
    (fun addrs ->
      let c = Cache.create (cfg ~size:512 ~line:32 ~assoc:2) in
      List.iter (fun a -> ignore (Cache.access c ~addr:a)) addrs;
      let s = Cache.stats c in
      let last = List.nth addrs (List.length addrs - 1) in
      let re_hit = Cache.access c ~addr:last in
      s.Cache.hits + s.Cache.misses = s.Cache.accesses && re_hit)

let test_hierarchy () =
  let h =
    Cache.Hierarchy.create
      ~l1:(cfg ~size:64 ~line:32 ~assoc:1)
      ~l2:(cfg ~size:256 ~line:32 ~assoc:2)
      ()
  in
  (* L1 conflict misses are absorbed by the larger L2 *)
  for _ = 1 to 10 do
    Cache.Hierarchy.access h ~addr:0 ~write:false;
    Cache.Hierarchy.access h ~addr:64 ~write:false
  done;
  let l1 = Cache.Hierarchy.l1_stats h in
  let l2 = Option.get (Cache.Hierarchy.l2_stats h) in
  Alcotest.(check int) "L1 thrashes" 20 l1.Cache.misses;
  Alcotest.(check int) "L2 absorbs" 2 l2.Cache.misses

(* A cache that ran any sequence and then had every address it touched
   invalidated answers any later sequence access for access, and counts
   it, exactly as a fresh cache does; so does a hierarchy, level by
   level.  Geometries cover direct-mapped and 2- to 4-way sets, and an
   L2 whose lines are longer than L1's. *)
let invalidate_geometries =
  [
    (cfg ~size:256 ~line:32 ~assoc:1, Some (cfg ~size:1536 ~line:64 ~assoc:3));
    (cfg ~size:512 ~line:32 ~assoc:2, Some (cfg ~size:2048 ~line:32 ~assoc:4));
    (cfg ~size:384 ~line:16 ~assoc:3, None);
    (cfg ~size:1024 ~line:64 ~assoc:4, Some (cfg ~size:4096 ~line:128 ~assoc:2));
  ]

let prop_invalidate_restores_fresh =
  let addrs = QCheck.Gen.(list_size (int_range 0 300) (int_range 0 8191)) in
  QCheck.Test.make ~name:"invalidating touched sets restores a fresh cache"
    ~count:300
    QCheck.(
      make
        ~print:(fun (g, a, b) ->
          Printf.sprintf "geometry %d, before [%s], after [%s]" g
            (String.concat ";" (List.map string_of_int a))
            (String.concat ";" (List.map string_of_int b)))
        Gen.(triple (int_range 0 (List.length invalidate_geometries - 1)) addrs addrs))
    (fun (g, before, after) ->
      let l1, l2 = List.nth invalidate_geometries g in
      let used = Cache.create l1 and fresh = Cache.create l1 in
      List.iter (fun a -> ignore (Cache.access used ~addr:a)) before;
      List.iter (fun a -> Cache.invalidate used ~addr:a) before;
      let s0 = Cache.stats used in
      let same_answers =
        List.for_all
          (fun a -> Cache.access used ~addr:a = Cache.access fresh ~addr:a)
          after
      in
      let s1 = Cache.stats used and sf = Cache.stats fresh in
      let h_used = Cache.Hierarchy.create ~l1 ?l2 ()
      and h_fresh = Cache.Hierarchy.create ~l1 ?l2 () in
      let misses h =
        ( (Cache.Hierarchy.l1_stats h).Cache.misses,
          match Cache.Hierarchy.l2_stats h with
          | Some s -> s.Cache.misses
          | None -> 0 )
      in
      List.iter (fun a -> Cache.Hierarchy.access h_used ~addr:a ~write:false) before;
      List.iter (fun a -> Cache.Hierarchy.invalidate h_used ~addr:a) before;
      let m1, m2 = misses h_used in
      let delta (a1, a2) = (a1 - m1, a2 - m2) in
      let same_hierarchy =
        List.for_all
          (fun a ->
            Cache.Hierarchy.access h_used ~addr:a ~write:false;
            Cache.Hierarchy.access h_fresh ~addr:a ~write:false;
            delta (misses h_used) = misses h_fresh)
          after
      in
      same_answers
      && s1.Cache.hits - s0.Cache.hits = sf.Cache.hits
      && s1.Cache.misses - s0.Cache.misses = sf.Cache.misses
      && same_hierarchy)

(* ------------------------------------------------------------------ *)
(* Machine model                                                       *)
(* ------------------------------------------------------------------ *)

let test_machines () =
  Alcotest.(check int) "three machines" 3 (List.length Machine.all);
  Alcotest.(check bool) "T3E has L2" true (Machine.t3e.Machine.l2 <> None);
  Alcotest.(check bool) "SP-2 has no L2" true (Machine.sp2.Machine.l2 = None);
  Alcotest.(check bool)
    "Paragon memory is smallest" true
    (Machine.paragon.Machine.node_memory_bytes
    < Machine.sp2.Machine.node_memory_bytes);
  (* time model is linear in its inputs *)
  let a =
    { Machine.flops = 100; l1_accesses = 0; l1_misses = 0; l2_misses = 0; comm_ns = 0.0 }
  in
  Alcotest.(check (float 1e-9)) "flop cost" 220.0 (Machine.time_ns Machine.t3e a)

(* ------------------------------------------------------------------ *)
(* Distribution / communication model                                  *)
(* ------------------------------------------------------------------ *)

let test_dist () =
  let d = Comm.Dist.make ~rank:2 ~procs:16 in
  Alcotest.(check (list int)) "4x4 grid" [ 4; 4 ] (Array.to_list (Comm.Dist.per_dim d));
  let d8 = Comm.Dist.make ~rank:2 ~procs:8 in
  Alcotest.(check int) "8 procs product" 8
    (Array.fold_left ( * ) 1 (Comm.Dist.per_dim d8));
  let d1 = Comm.Dist.make ~rank:2 ~procs:1 in
  Alcotest.(check bool)
    "p=1: nothing remote" true
    (Comm.Dist.remote_dir d1 (Support.Vec.of_list [ -1; 1 ]) = None);
  match Comm.Dist.remote_dir d (Support.Vec.of_list [ -2; 0 ]) with
  | Some dir -> Alcotest.(check (list int)) "north" [ -1; 0 ] (Array.to_list dir)
  | None -> Alcotest.fail "expected remote"

(* A small stencil program with a temporary, for comm tests. *)
let comm_prog () =
  let open Ir in
  let v = Support.Vec.of_list in
  let interior = Region.of_bounds [ (1, 8); (1, 8) ] in
  let padded = Region.of_bounds [ (0, 9); (0, 9) ] in
  let user name = { Prog.name; bounds = padded; kind = Prog.User } in
  {
    Prog.name = "comm_test";
    arrays = [ user "A"; user "B"; user "T"; user "C" ];
    scalars = [];
    body =
      [
        Prog.Astmt
          (Nstmt.make ~region:interior ~lhs:"T"
             Expr.(Binop (Add, Ref ("A", v [ -1; 0 ]), Ref ("A", v [ 1; 0 ]))));
        Prog.Astmt
          (Nstmt.make ~region:interior ~lhs:"C"
             Expr.(Binop (Mul, Ref ("B", v [ 0; 0 ]), Const 2.0)));
        Prog.Astmt
          (Nstmt.make ~region:interior ~lhs:"B"
             Expr.(Ref ("T", v [ 0; 0 ])));
      ];
    live_out = [ "B"; "C" ];
  }

let analyze ?(procs = 4) ?(opts = Comm.Model.all_on) level =
  let c = Compilers.Driver.compile_exn_opts (Compilers.Driver.opts level) (comm_prog ()) in
  Comm.Model.analyze ~machine:Machine.t3e ~procs ~opts c

let test_comm_p1_silent () =
  let s = analyze ~procs:1 Compilers.Driver.Baseline in
  Alcotest.(check int) "no messages" 0 s.Comm.Model.messages;
  Alcotest.(check (float 0.0)) "no time" 0.0 s.Comm.Model.effective_ns

let test_comm_messages () =
  let s = analyze ~opts:Comm.Model.vectorize_only Compilers.Driver.Baseline in
  (* statement 1 reads A at north and south: two messages *)
  Alcotest.(check int) "two exchanges" 2 s.Comm.Model.messages;
  (* each moves one 8-wide row of 8-byte elements *)
  Alcotest.(check int) "bytes" (2 * 8 * 8) s.Comm.Model.bytes

let test_comm_pipelining_hides () =
  let raw = analyze ~opts:Comm.Model.vectorize_only Compilers.Driver.Baseline in
  let piped =
    analyze
      ~opts:{ Comm.Model.vectorize_only with pipelining = true }
      Compilers.Driver.Baseline
  in
  Alcotest.(check bool)
    "pipelining reduces wait" true
    (piped.Comm.Model.effective_ns <= raw.Comm.Model.effective_ns)

let test_favor_comm_veto () =
  let prog = comm_prog () in
  let veto = Comm.Interact.favor_comm_veto ~procs:4 prog in
  (* statement 0 reads remote data; statement 1 is independent of it:
     fusing them must be rejected; statement 2 depends on 0: allowed. *)
  Alcotest.(check bool) "independent blocked" false (veto ~block:0 [ 0; 1 ]);
  Alcotest.(check bool) "dependent allowed" true (veto ~block:0 [ 0; 2 ]);
  let veto1 = Comm.Interact.favor_comm_veto ~procs:1 prog in
  Alcotest.(check bool) "p=1 never vetoes" true (veto1 ~block:0 [ 0; 1 ])

let test_perf_measure () =
  let prog = comm_prog () in
  let cfgp = { Comm.Perf.machine = Machine.t3e; procs = 4; comm = Comm.Model.all_on } in
  let base =
    Comm.Perf.measure cfgp
      (Compilers.Driver.compile_exn_opts (Compilers.Driver.opts Compilers.Driver.Baseline) prog)
  in
  let c2 =
    Comm.Perf.measure cfgp
      (Compilers.Driver.compile_exn_opts (Compilers.Driver.opts Compilers.Driver.C2) prog)
  in
  Alcotest.(check string) "same results" base.Comm.Perf.checksum c2.Comm.Perf.checksum;
  Alcotest.(check bool)
    "c2 no slower" true
    (c2.Comm.Perf.time_ns <= base.Comm.Perf.time_ns);
  Alcotest.(check bool)
    "footprint shrinks" true
    (c2.Comm.Perf.footprint_bytes < base.Comm.Perf.footprint_bytes);
  Alcotest.(check bool)
    "improvement is positive" true
    (Comm.Perf.improvement_pct ~baseline:base c2 >= 0.0)

let suites =
  [
    ( "cachesim",
      [
        Alcotest.test_case "geometry" `Quick test_cache_geometry;
        Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
        Alcotest.test_case "LRU" `Quick test_cache_lru;
        Alcotest.test_case "direct-mapped conflicts" `Quick test_cache_direct_mapped;
        Alcotest.test_case "hierarchy" `Quick test_hierarchy;
        QCheck_alcotest.to_alcotest prop_cache_counts_consistent;
        QCheck_alcotest.to_alcotest prop_invalidate_restores_fresh;
      ] );
    ( "machine",
      [ Alcotest.test_case "models" `Quick test_machines ] );
    ( "comm",
      [
        Alcotest.test_case "distribution" `Quick test_dist;
        Alcotest.test_case "p=1 silent" `Quick test_comm_p1_silent;
        Alcotest.test_case "message inference" `Quick test_comm_messages;
        Alcotest.test_case "pipelining" `Quick test_comm_pipelining_hides;
        Alcotest.test_case "favor-comm veto" `Quick test_favor_comm_veto;
        Alcotest.test_case "end-to-end measure" `Quick test_perf_measure;
      ] );
  ]
