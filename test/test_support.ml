open Support

let vec = Alcotest.testable (Fmt.of_to_string Vec.to_string) Vec.equal

let test_vec_ops () =
  let a = Vec.of_list [ 1; -2; 3 ] and b = Vec.of_list [ 0; 1; 1 ] in
  Alcotest.check vec "add" (Vec.of_list [ 1; -1; 4 ]) (Vec.add a b);
  Alcotest.check vec "sub" (Vec.of_list [ 1; -3; 2 ]) (Vec.sub a b);
  Alcotest.check vec "neg" (Vec.of_list [ -1; 2; -3 ]) (Vec.neg a);
  Alcotest.(check bool) "null zero" true (Vec.is_null (Vec.zero 4));
  Alcotest.(check bool) "null nonzero" false (Vec.is_null a);
  Alcotest.(check int) "get is 1-indexed" (-2) (Vec.get a 2)

let test_vec_rank_mismatch () =
  Alcotest.check_raises "add mismatched ranks"
    (Invalid_argument "Vec.add: rank mismatch (2 vs 3)") (fun () ->
      ignore (Vec.add (Vec.zero 2) (Vec.zero 3)))

let test_lex () =
  let check s expect v =
    Alcotest.(check bool) s expect (Vec.lex_nonneg (Vec.of_list v))
  in
  check "null is nonneg" true [ 0; 0 ];
  check "(0,1)" true [ 0; 1 ];
  check "(1,-5)" true [ 1; -5 ];
  check "(-1,9)" false [ -1; 9 ];
  check "(0,-1)" false [ 0; -1 ];
  Alcotest.(check bool) "lex_pos null" false (Vec.lex_pos (Vec.zero 3));
  Alcotest.(check bool) "lex_pos (0,2)" true (Vec.lex_pos (Vec.of_list [ 0; 2 ]))

let prop_lex_trichotomy =
  QCheck.Test.make ~name:"lex: v nonneg or -v nonneg (or both iff null)"
    ~count:500
    QCheck.(list_of_size Gen.(int_range 1 5) (int_range (-4) 4))
    (fun l ->
      let v = Vec.of_list l in
      let n = Vec.lex_nonneg v and m = Vec.lex_nonneg (Vec.neg v) in
      (n || m) && (n && m) = Vec.is_null v)

let test_topo_line () =
  let order =
    Toposort.sort_exn ~n:4 ~edges:[ (2, 1); (1, 0); (3, 2) ]
  in
  Alcotest.(check (list int)) "line order" [ 3; 2; 1; 0 ] order

let test_topo_stable () =
  (* no constraints: source order preserved *)
  let order = Toposort.sort_exn ~n:4 ~edges:[] in
  Alcotest.(check (list int)) "stable" [ 0; 1; 2; 3 ] order;
  (* one constraint should reorder minimally *)
  let order = Toposort.sort_exn ~n:3 ~edges:[ (2, 0) ] in
  Alcotest.(check (list int)) "minimal reorder" [ 1; 2; 0 ] order

let test_topo_cycle () =
  Alcotest.(check bool)
    "cycle detected" true
    (Toposort.has_cycle ~n:3 ~edges:[ (0, 1); (1, 2); (2, 0) ]);
  Alcotest.(check bool)
    "dag is acyclic" false
    (Toposort.has_cycle ~n:3 ~edges:[ (0, 1); (0, 2); (1, 2) ])

let test_reachable () =
  let r =
    Toposort.reachable ~n:5 ~edges:[ (0, 1); (1, 2); (3, 4) ] ~from:[ 0 ]
  in
  Alcotest.(check (list bool))
    "reach from 0"
    [ true; true; true; false; false ]
    (Array.to_list r)

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"toposort respects all edges" ~count:300
    QCheck.(
      pair (int_range 1 8)
        (list_of_size Gen.(int_range 0 12) (pair (int_range 0 7) (int_range 0 7))))
    (fun (n, raw) ->
      let edges =
        List.filter (fun (a, b) -> a < n && b < n && a <> b) raw
      in
      match Toposort.sort ~n ~edges with
      | None -> Toposort.has_cycle ~n ~edges
      | Some order ->
          let pos = Array.make n 0 in
          List.iteri (fun i v -> pos.(v) <- i) order;
          List.for_all (fun (a, b) -> pos.(a) < pos.(b)) edges)

let test_dsu () =
  let d = Dsu.create 6 in
  Dsu.union d 4 2;
  Dsu.union d 2 5;
  Alcotest.(check int) "min rep" 2 (Dsu.find d 5);
  Alcotest.(check bool) "same" true (Dsu.same d 4 5);
  Alcotest.(check bool) "not same" false (Dsu.same d 0 5);
  Alcotest.(check int) "n_sets" 4 (Dsu.n_sets d);
  Alcotest.(check (list (list int)))
    "groups"
    [ [ 0 ]; [ 1 ]; [ 2; 4; 5 ]; [ 3 ] ]
    (Dsu.groups d);
  let d2 = Dsu.copy d in
  Dsu.union d2 0 1;
  Alcotest.(check bool) "copy is independent" false (Dsu.same d 0 1)

let prop_dsu_groups_canonical =
  QCheck.Test.make ~name:"dsu groups sorted by representative" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 15) (pair (int_range 0 9) (int_range 0 9)))
    (fun unions ->
      let d = Dsu.create 10 in
      List.iter (fun (a, b) -> Dsu.union d a b) unions;
      let gs = Dsu.groups d in
      let mins = List.map (fun g -> List.fold_left min max_int g) gs in
      (* groups ascend by representative, members ascend, and the
         groups partition 0..n-1 — order is structural, never
         insertion-dependent *)
      List.sort compare mins = mins
      && List.for_all (fun g -> List.sort compare g = g) gs
      && List.sort compare (List.concat gs) = List.init 10 Fun.id)

let test_prng () =
  let r = Prng.create 42L in
  let xs = List.init 1000 (fun _ -> Prng.next_float r) in
  Alcotest.(check bool)
    "all in (0,1)" true
    (List.for_all (fun x -> x > 0.0 && x < 1.0) xs);
  let mean = List.fold_left ( +. ) 0.0 xs /. 1000.0 in
  Alcotest.(check bool) "mean near 1/2" true (abs_float (mean -. 0.5) < 0.05);
  let r1 = Prng.create 7L and r2 = Prng.create 7L in
  Alcotest.(check (list (float 0.0)))
    "deterministic"
    (List.init 10 (fun _ -> Prng.next_float r1))
    (List.init 10 (fun _ -> Prng.next_float r2))

let test_prng_chi_square () =
  let r = Prng.create 123L in
  let bound = 7 in
  let draws = 7000 in
  let counts = Array.make bound 0 in
  for _ = 1 to draws do
    let v = Prng.next_int r bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. float_of_int bound in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  (* 22.46 is the p=0.001 critical value at 6 degrees of freedom — and
     the seed is pinned, so the check cannot flake *)
  Alcotest.(check bool)
    (Printf.sprintf "chi-square %.2f < 22.46" chi2)
    true (chi2 < 22.46)

let test_prng_no_modulo_bias () =
  (* bound = 3*2^29: 2^31 mod bound = 2^29, so plain [bits mod bound]
     lands in [0, 2^29) with probability 1/2 instead of 1/3 — far
     outside noise at 3000 draws.  Rejection sampling must not. *)
  let r = Prng.create 77L in
  let bound = 3 * (1 lsl 29) in
  let draws = 3000 in
  let low = ref 0 in
  for _ = 1 to draws do
    if Prng.next_int r bound < 1 lsl 29 then incr low
  done;
  let frac = float_of_int !low /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "low-third fraction %.3f near 1/3" frac)
    true
    (abs_float (frac -. (1.0 /. 3.0)) < 0.04)

let test_prng_bounds () =
  let r = Prng.create 5L in
  for _ = 1 to 2000 do
    let v = Prng.next_int r 10 in
    if v < 0 || v >= 10 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.(check int) "bound 1 is always 0" 0 (Prng.next_int r 1);
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Prng.next_int: bound must be positive") (fun () ->
      ignore (Prng.next_int r 0))

(* ---------------- Pool ------------------------------------------- *)

let test_pool_ordering () =
  let tasks = List.init 100 Fun.id in
  let want = List.map (fun i -> i * i) tasks in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "squares in task order, %d domains" domains)
        want
        (Pool.map ~domains (fun i -> i * i) tasks))
    [ 1; 2; 8 ]

let test_pool_uneven_work () =
  (* front-load the slow tasks so completion order inverts task order;
     the result list must not *)
  let f i =
    if i < 4 then begin
      let s = ref 0 in
      for k = 1 to 300_000 do
        s := !s + k
      done;
      ignore !s
    end;
    i * 10
  in
  let tasks = List.init 32 Fun.id in
  Alcotest.(check (list int))
    "ordered despite uneven work"
    (List.map (fun i -> i * 10) tasks)
    (Pool.map ~domains:8 f tasks)

let test_pool_edges () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~domains:4 Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map ~domains:4 Fun.id [ 7 ]);
  Alcotest.(check (list int))
    "more domains than tasks"
    [ 1; 2 ]
    (Pool.map ~domains:16 Fun.id [ 1; 2 ]);
  Alcotest.(check bool) "default_domains >= 1" true (Pool.default_domains () >= 1)

exception Boom of int

let test_pool_exception () =
  List.iter
    (fun domains ->
      match
        Pool.map ~domains
          (fun i -> if i mod 3 = 1 then raise (Boom i) else i)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          (* several tasks raise; the lowest task index must win
             regardless of which domain finished first *)
          Alcotest.(check int)
            (Printf.sprintf "lowest failing index, %d domains" domains)
            1 i)
    [ 1; 2; 8 ]

(* One set of workers serves many batches: each batch comes back in
   task order, every task runs exactly once, and a raising batch
   re-raises its lowest-indexed failure without breaking the batches
   after it. *)
let test_pool_batches () =
  List.iter
    (fun domains ->
      Pool.with_workers ~domains (fun w ->
          for round = 1 to 50 do
            let n = round mod 17 in
            let runs = Array.init n (fun _ -> Atomic.make 0) in
            let got =
              Pool.batch w
                (fun i ->
                  Atomic.incr runs.(i);
                  (i * round) + 1)
                (List.init n Fun.id)
            in
            Alcotest.(check (list int))
              (Printf.sprintf "round %d in task order, %d domains" round domains)
              (List.init n (fun i -> (i * round) + 1))
              got;
            Array.iteri
              (fun i r ->
                if Atomic.get r <> 1 then
                  Alcotest.failf "round %d, %d domains: task %d ran %d times"
                    round domains i (Atomic.get r))
              runs;
            if round mod 10 = 0 then
              match
                Pool.batch w
                  (fun i -> if i >= 3 && i mod 2 = 1 then raise (Boom i) else i)
                  (List.init 12 Fun.id)
              with
              | _ -> Alcotest.fail "expected Boom"
              | exception Boom i ->
                  Alcotest.(check int)
                    (Printf.sprintf "round %d lowest failure, %d domains" round
                       domains)
                    3 i
          done))
    [ 1; 2; 8 ]

(* When the callback raises, with_workers joins its workers before
   re-raising: every worker domain that ran a task has exited. *)
let test_pool_joins_on_raise () =
  let caller = Domain.self () in
  let lock = Mutex.create () in
  let workers = ref [] in
  let exited = Atomic.make 0 in
  let registered = Domain.DLS.new_key (fun () -> false) in
  let task i =
    if Domain.self () <> caller && not (Domain.DLS.get registered) then begin
      Domain.DLS.set registered true;
      Mutex.protect lock (fun () -> workers := Domain.self () :: !workers);
      Domain.at_exit (fun () -> Atomic.incr exited)
    end;
    Unix.sleepf 0.002;
    i
  in
  (match
     Pool.with_workers ~domains:4 (fun w ->
         ignore (Pool.batch w task (List.init 32 Fun.id) : int list);
         raise (Boom 0))
   with
  | () -> Alcotest.fail "expected Boom"
  | exception Boom 0 -> ()
  | exception Boom i -> Alcotest.failf "unexpected Boom %d" i);
  Alcotest.(check int)
    "every worker that ran a task was joined"
    (List.length !workers) (Atomic.get exited)

(* More domains than the runtime allows: the spawns it refuses are
   skipped, and the result is still List.map's. *)
let test_pool_past_domain_limit () =
  let tasks = List.init 200 Fun.id in
  let f i =
    Unix.sleepf 0.001;
    (i * 7) + 1
  in
  Alcotest.(check (list int))
    "200 domains == List.map" (List.map f tasks)
    (Pool.map ~domains:200 f tasks);
  Pool.with_workers ~domains:200 (fun w ->
      Alcotest.(check (list int))
        "200 live workers, two batches"
        (List.map f tasks @ List.map f tasks)
        (Pool.batch w f tasks @ Pool.batch w f tasks))

let suites =
  [
    ( "support.vec",
      [
        Alcotest.test_case "ops" `Quick test_vec_ops;
        Alcotest.test_case "rank mismatch" `Quick test_vec_rank_mismatch;
        Alcotest.test_case "lexicographic" `Quick test_lex;
        QCheck_alcotest.to_alcotest prop_lex_trichotomy;
      ] );
    ( "support.toposort",
      [
        Alcotest.test_case "line" `Quick test_topo_line;
        Alcotest.test_case "stable" `Quick test_topo_stable;
        Alcotest.test_case "cycle" `Quick test_topo_cycle;
        Alcotest.test_case "reachable" `Quick test_reachable;
        QCheck_alcotest.to_alcotest prop_topo_respects_edges;
      ] );
    ( "support.dsu",
      [
        Alcotest.test_case "basics" `Quick test_dsu;
        QCheck_alcotest.to_alcotest prop_dsu_groups_canonical;
      ] );
    ( "support.prng",
      [
        Alcotest.test_case "uniformity" `Quick test_prng;
        Alcotest.test_case "next_int chi-square" `Quick test_prng_chi_square;
        Alcotest.test_case "next_int has no modulo bias" `Quick
          test_prng_no_modulo_bias;
        Alcotest.test_case "next_int bounds" `Quick test_prng_bounds;
      ] );
    ( "support.pool",
      [
        Alcotest.test_case "results in task order" `Quick test_pool_ordering;
        Alcotest.test_case "uneven work stays ordered" `Quick
          test_pool_uneven_work;
        Alcotest.test_case "edge cases" `Quick test_pool_edges;
        Alcotest.test_case "first failure propagates" `Quick
          test_pool_exception;
        Alcotest.test_case "many batches on one set of workers" `Quick
          test_pool_batches;
        Alcotest.test_case "workers joined when the callback raises" `Quick
          test_pool_joins_on_raise;
        Alcotest.test_case "past the runtime's domain limit" `Quick
          test_pool_past_domain_limit;
      ] );
  ]
