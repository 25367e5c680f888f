(* The search-based planner (lib/plan): cost model sanity, search
   validity/optimality properties on random ASDGs, and determinism of
   the end-to-end planned compile. *)

open Ir
module Vec = Support.Vec

let v = Vec.of_list
let r44 = Region.of_bounds [ (1, 4); (1, 4) ]
let names = [| "A"; "B"; "C"; "D"; "E" |]

let mk_prog stmts =
  {
    Prog.name = "rand";
    arrays =
      Array.to_list names
      |> List.map (fun n ->
             {
               Prog.name = n;
               bounds = Region.of_bounds [ (0, 5); (0, 5) ];
               kind = Prog.User;
             });
    scalars = [];
    body = List.map (fun s -> Prog.Astmt s) stmts;
    live_out = [];
  }

let cost_cfg =
  { Plan.Cost.machine = Machine.t3e; procs = 1; opts = Comm.Model.all_on }

let search_cfg =
  { Plan.Search.default with Plan.Search.max_states = 200; beam_width = 2 }

let all_candidates = Array.to_list names

(* same random normal-form blocks as test_core's fusion properties *)
let random_block_gen =
  let open QCheck.Gen in
  let off = int_range (-1) 1 in
  let ref_gen =
    map2
      (fun n (a, b) -> Expr.Ref (names.(n), v [ a; b ]))
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
      if List.mem lhs (Expr.ref_names rhs) then None
      else Some (Nstmt.make ~region:r44 ~lhs rhs))
    specs

(* Every state the search costs — not just the returned one — must be
   a valid Definition 5 partition: moves are vetted by check_merge and
   closed under grow, so a violation here is a move-generator bug. *)
let prop_search_states_valid =
  QCheck.Test.make ~name:"every searched partition is valid" ~count:150
    (QCheck.make random_block_gen)
    (fun specs ->
      match mk_block specs with
      | [] -> true
      | stmts ->
          let g = Core.Asdg.build stmts in
          let cost = Plan.Cost.create cost_cfg (mk_prog stmts) in
          let all_valid = ref true in
          let probe p _ =
            if not (Core.Partition.is_valid p) then all_valid := false
          in
          let _p, _stats =
            Plan.Search.block ~probe search_cfg cost ~block:0
              ~candidates:all_candidates g
          in
          !all_valid)

(* The incumbent is seeded with greedy c2+f3, so the search result can
   never price worse; and the returned partition's cost must be the
   reported best. *)
let prop_search_never_worse =
  QCheck.Test.make ~name:"search cost <= greedy cost" ~count:150
    (QCheck.make random_block_gen)
    (fun specs ->
      match mk_block specs with
      | [] -> true
      | stmts ->
          let g = Core.Asdg.build stmts in
          let cost = Plan.Cost.create cost_cfg (mk_prog stmts) in
          let _p, stats =
            Plan.Search.block search_cfg cost ~block:0
              ~candidates:all_candidates g
          in
          stats.Plan.Search.best_ns <= stats.Plan.Search.greedy_ns +. 1e-6)

(* The probe memo is shared by every cluster of every block priced
   against one Cost.t; it must never change an answer.  s0 and s1 feed
   the same two streams over regions of different size, so their
   probes differ only in the line count. *)
let test_probe_memo_exact () =
  let r55 = Region.of_bounds [ (1, 5); (1, 5) ] in
  let a = Expr.Ref ("A", v [ 0; 0 ]) and b = Expr.Ref ("B", v [ 0; 0 ]) in
  let stmts =
    [
      Nstmt.make ~region:r44 ~lhs:"B" a;
      Nstmt.make ~region:r55 ~lhs:"B" a;
      Nstmt.make ~region:r44 ~lhs:"C" (Expr.Binop (Expr.Add, a, b));
      Nstmt.make ~region:r44 ~lhs:"D" (Expr.Binop (Expr.Add, b, a));
    ]
  in
  let prog = mk_prog stmts in
  let shared = Plan.Cost.create cost_cfg prog in
  List.iter
    (fun (members, contracted) ->
      let fresh = Plan.Cost.create cost_cfg prog in
      let name =
        Printf.sprintf "[%s] without [%s]"
          (String.concat ";" (List.map string_of_int members))
          (String.concat ";" contracted)
      in
      let contracted = Plan.Cost.flags shared ~block:0 contracted in
      Alcotest.(check (pair (float 0.0) (float 0.0)))
        name
        (Plan.Cost.cluster_misses fresh ~block:0 members ~contracted)
        (Plan.Cost.cluster_misses shared ~block:0 members ~contracted))
    [
      ([ 0 ], []);
      ([ 1 ], []);
      ([ 0; 2 ], []);
      ([ 2; 0 ], []);
      ([ 0; 2 ], [ "B" ]);
      ([ 2 ], [ "B" ]);
      ([ 3 ], []);
      ([ 0; 2; 3 ], [ "A" ]);
      ([ 1 ], [ "A"; "B" ]);
    ]

(* ------------------------------------------------------------------ *)
(* ILP partitioner properties                                          *)
(* ------------------------------------------------------------------ *)

let ilp_cfg = { Plan.Ilp.default with Plan.Ilp.max_clusters = 300 }

(* every partition the branch-and-cut considers — probed incumbents
   and the returned one — must be Definition-5 valid, and each of its
   clusters must be reachable through check_merge from the trivial
   partition (the column enumeration claims to emit only such sets) *)
let prop_ilp_partitions_valid =
  QCheck.Test.make ~name:"every ILP partition is valid" ~count:120
    (QCheck.make random_block_gen)
    (fun specs ->
      match mk_block specs with
      | [] -> true
      | stmts ->
          let g = Core.Asdg.build stmts in
          let cost = Plan.Cost.create cost_cfg (mk_prog stmts) in
          let all_valid = ref true in
          let probe p =
            if not (Core.Partition.is_valid p) then all_valid := false
          in
          let p, _stats =
            Plan.Ilp.block ~probe ilp_cfg cost ~block:0
              ~candidates:all_candidates g
          in
          let clusters_mergeable =
            List.for_all
              (fun cl ->
                match cl with
                | [ _ ] -> true
                | _ -> (
                    match
                      Core.Partition.check_merge (Core.Partition.trivial g) cl
                    with
                    | Ok () -> true
                    | Error _ -> false))
              (Core.Partition.clusters p)
          in
          !all_valid && Core.Partition.is_valid p && clusters_mergeable)

(* the solve is seeded with the searched partition and greedy c2+f3,
   so the chain ilp <= search <= greedy must hold on any block *)
let prop_ilp_never_worse =
  QCheck.Test.make ~name:"ilp cost <= search cost <= greedy cost" ~count:120
    (QCheck.make random_block_gen)
    (fun specs ->
      match mk_block specs with
      | [] -> true
      | stmts ->
          let g = Core.Asdg.build stmts in
          let cost = Plan.Cost.create cost_cfg (mk_prog stmts) in
          let sp, sstats =
            Plan.Search.block search_cfg cost ~block:0
              ~candidates:all_candidates g
          in
          let _p, istats =
            Plan.Ilp.block ~seeds:[ sp ] ilp_cfg cost ~block:0
              ~candidates:all_candidates g
          in
          istats.Plan.Ilp.best_ns <= sstats.Plan.Search.best_ns +. 1e-6
          && sstats.Plan.Search.best_ns <= sstats.Plan.Search.greedy_ns +. 1e-6)

(* pricing is not deciding: both planners price many partitions under
   Core.Contraction's verdict, but only a compile's decisions may count
   as contraction.candidates / .performed events *)
let prop_pricing_is_silent =
  QCheck.Test.make ~name:"planners price without decision events" ~count:60
    (QCheck.make random_block_gen)
    (fun specs ->
      match mk_block specs with
      | [] -> true
      | stmts ->
          let g = Core.Asdg.build stmts in
          let cost = Plan.Cost.create cost_cfg (mk_prog stmts) in
          let r = Obs.create () in
          Obs.run r (fun () ->
              let sp, _ =
                Plan.Search.block search_cfg cost ~block:0
                  ~candidates:all_candidates g
              in
              ignore
                (Plan.Ilp.block ~seeds:[ sp ] ilp_cfg cost ~block:0
                   ~candidates:all_candidates g));
          let counters = (Obs.report r).Obs.counters in
          let get k = Option.value ~default:0 (List.assoc_opt k counters) in
          get "contraction.candidates" = 0 && get "contraction.performed" = 0)

(* when the solver proves optimality the certified bound must bracket
   the incumbent from below (and match it at the reported objective) *)
let prop_ilp_bound_sound =
  QCheck.Test.make ~name:"certified bound <= proved optimum" ~count:120
    (QCheck.make random_block_gen)
    (fun specs ->
      match mk_block specs with
      | [] -> true
      | stmts ->
          let g = Core.Asdg.build stmts in
          let cost = Plan.Cost.create cost_cfg (mk_prog stmts) in
          let _p, istats =
            Plan.Ilp.block ilp_cfg cost ~block:0 ~candidates:all_candidates g
          in
          match istats.Plan.Ilp.lower_bound_ns with
          | None -> true
          | Some lb ->
              (not istats.Plan.Ilp.proved)
              || lb <= istats.Plan.Ilp.best_ns +. 1e-3)

(* ------------------------------------------------------------------ *)
(* Cost model sanity on a concrete block                               *)
(* ------------------------------------------------------------------ *)

(* producer/consumer pair: fusing and contracting the temporary must
   strictly reduce the modeled cost *)
let test_cost_prefers_contraction () =
  let stmts =
    [
      Nstmt.make ~region:r44 ~lhs:"A" Expr.(Binop (Add, Ref ("B", v [ 0; 0 ]), Const 1.0));
      Nstmt.make ~region:r44 ~lhs:"C" Expr.(Binop (Add, Ref ("A", v [ 0; 0 ]), Const 2.0));
    ]
  in
  let g = Core.Asdg.build stmts in
  let cost = Plan.Cost.create cost_cfg (mk_prog stmts) in
  let bp_of p contracted =
    {
      Sir.Scalarize.partition = p;
      contracted = List.map (fun x -> (x, Core.Contraction.Scalar)) contracted;
      absorbed = [];
    }
  in
  let trivial = Core.Partition.trivial g in
  let fused = Core.Partition.merge trivial [ 0; 1 ] in
  let unfused_ns = (Plan.Cost.block_cost cost ~block:0 (bp_of trivial [])).Plan.Cost.total_ns in
  let fused_ns = (Plan.Cost.block_cost cost ~block:0 (bp_of fused [ "A" ])).Plan.Cost.total_ns in
  Alcotest.(check bool) "contraction pays" true (fused_ns < unfused_ns);
  (* and the search finds exactly that plan *)
  let p, stats =
    Plan.Search.block search_cfg cost ~block:0 ~candidates:[ "A" ] g
  in
  Alcotest.(check int) "one cluster" 1 (Core.Partition.n_clusters p);
  Alcotest.(check bool) "reported best is fused cost" true
    (abs_float (stats.Plan.Search.best_ns -. fused_ns) < 1e-6)

(* ------------------------------------------------------------------ *)
(* End-to-end planned compiles on suite benchmarks                     *)
(* ------------------------------------------------------------------ *)

let ilp_compile ?(machine = Machine.t3e) ?(procs = 1) ?(max_clusters = 1500)
    ?(jobs = 1)
    ?(search = { Plan.Search.max_states = 600; beam_width = 2; jobs = 1 }) name
    =
  let b =
    match Suite.by_name name with
    | Some b -> b
    | None -> Alcotest.failf "no bench %s" name
  in
  let prog = Suite.program ~tile:16 b in
  let cost =
    Plan.Cost.create { Plan.Cost.machine; procs; opts = Comm.Model.all_on } prog
  in
  match
    Plan.Driver.compile_ilp
      ~search:{ search with Plan.Search.jobs }
      ~ilp:{ Plan.Ilp.default with Plan.Ilp.max_clusters; jobs }
      ~cost prog
  with
  | Ok (c, prov) -> (prog, c, prov)
  | Error d ->
      Alcotest.failf "ilp compile failed: %s" (Obs.Diagnostic.to_string d)

let test_simple_search_wins () =
  let _prog, c, prov = ilp_compile ~procs:16 "simple" in
  Alcotest.(check bool) "search no worse" true
    (prov.Plan.Driver.search_total_ns
    <= prov.Plan.Driver.greedy_total_ns +. 1e-6);
  (* on simple @ t3e x16 the searched plan strictly beats greedy (the
     paper's §5.2 conflict); locks in the planner's reason to exist *)
  Alcotest.(check bool) "search strictly better" true
    (prov.Plan.Driver.search_total_ns
    < prov.Plan.Driver.greedy_total_ns -. 1e-6);
  Alcotest.(check bool) "a planned plan chosen" true
    (prov.Plan.Driver.strategy <> "greedy");
  (* same observable program: the searched plan only reshuffles loops *)
  let greedy =
    match Compilers.Driver.compile_opts (Compilers.Driver.opts Compilers.Driver.C2F3)
            (let b = Option.get (Suite.by_name "simple") in
             Suite.program ~tile:16 b)
    with
    | Ok g -> g
    | Error d -> Alcotest.failf "greedy compile failed: %s" (Obs.Diagnostic.to_string d)
  in
  Alcotest.(check string) "checksum matches greedy"
    (Exec.Interp.checksum (Exec.Interp.run greedy.Compilers.Driver.code))
    (Exec.Interp.checksum (Exec.Interp.run c.Compilers.Driver.code))

let plan_fingerprint (c : Compilers.Driver.compiled) =
  String.concat ";"
    (List.map
       (fun (bp : Sir.Scalarize.block_plan) ->
         String.concat "|"
           (List.map
              (fun cl -> String.concat "," (List.map string_of_int cl))
              (Core.Partition.clusters bp.Sir.Scalarize.partition))
         ^ "/"
         ^ String.concat "," (List.map fst bp.Sir.Scalarize.contracted))
       c.Compilers.Driver.plan)

(* sibling candidates are costed on a domain pool when jobs > 1; the
   sequential prefix fixes the visit order and every tie-break, so the
   plan AND the full provenance must be bit-identical at any jobs *)
let test_parallel_search_deterministic () =
  let run jobs =
    let _prog, c, prov =
      ilp_compile ~procs:16 ~max_clusters:400 ~jobs "simple"
    in
    ( plan_fingerprint c,
      Obs.Json.to_string (Obs.Codec.encode Plan.Driver.provenance_codec prov) )
  in
  let f1, j1 = run 1 in
  List.iter
    (fun jobs ->
      let f, j = run jobs in
      Alcotest.(check string)
        (Printf.sprintf "plan identical at %d jobs" jobs)
        f1 f;
      Alcotest.(check string)
        (Printf.sprintf "provenance identical at %d jobs" jobs)
        j1 j)
    [ 2; 8 ]

(* a budget far below what the beam would price stops the search
   between rounds; which states were priced by then is fixed by the
   sequential prefix and the beam's eps-quantized, key-broken order, so
   the plan must be bit-identical however many domains costed the
   candidates *)
let test_budget_cut_beam_deterministic () =
  let max_states = 60 in
  let run jobs =
    let _prog, c, prov =
      ilp_compile ~procs:16 ~max_clusters:400 ~jobs
        ~search:{ Plan.Search.default with Plan.Search.max_states }
        "simple"
    in
    let cut =
      List.exists
        (fun (r : Plan.Driver.block_report) ->
          r.Plan.Driver.stats.Plan.Search.generated >= max_states)
        prov.Plan.Driver.blocks
    in
    ( plan_fingerprint c,
      Obs.Json.to_string (Obs.Codec.encode Plan.Driver.provenance_codec prov),
      cut )
  in
  let f1, j1, cut = run 1 in
  Alcotest.(check bool) "the budget stopped a search" true cut;
  List.iter
    (fun jobs ->
      let f, j, _ = run jobs in
      Alcotest.(check string)
        (Printf.sprintf "beam plan identical at %d jobs" jobs)
        f1 f;
      Alcotest.(check string)
        (Printf.sprintf "beam provenance identical at %d jobs" jobs)
        j1 j)
    [ 2; 8 ]

(* On the four programs perfbench plans cold (default tiles, T3E, one
   processor) every search ends before its budget: quadrupling
   max_states changes no plan and no provenance field. *)
let test_budget_does_not_bind () =
  let plan search name =
    let prog = Suite.load name in
    let cost = Plan.Cost.create cost_cfg prog in
    match Plan.Driver.compile_ilp ~search ~cost prog with
    | Ok (c, prov) ->
        ( plan_fingerprint c,
          Obs.Json.to_string (Obs.Codec.encode Plan.Driver.provenance_codec prov)
        )
    | Error d -> Alcotest.failf "%s: %s" name (Obs.Diagnostic.to_string d)
  in
  let wide =
    {
      Plan.Search.default with
      Plan.Search.max_states = 4 * Plan.Search.default.Plan.Search.max_states;
    }
  in
  List.iter
    (fun name ->
      let f, j = plan Plan.Search.default name in
      let f4, j4 = plan wide name in
      Alcotest.(check string) (name ^ ": plan at 4x max_states") f f4;
      Alcotest.(check string) (name ^ ": provenance at 4x max_states") j j4)
    [ "ep"; "frac"; "tomcatv"; "sp" ]

let print_ids ids =
  String.concat "." (Array.to_list (Array.map string_of_int ids))

let print_entry (q, ids) = Printf.sprintf "%g:%s" q (print_ids ids)

(* The beam pick as first written, kept as the oracle: every entry's
   key printed, the whole list stably sorted by (cost, printed key),
   then the first [width] taken. *)
let sorted_beam width entries =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: tl -> x :: take (k - 1) tl
  in
  List.map (fun (q, ids, x) -> (q, print_ids ids, x)) entries
  |> List.sort (fun (q1, k1, _) (q2, k2, _) ->
         match Float.compare q1 q2 with 0 -> String.compare k1 k2 | c -> c)
  |> take width
  |> List.map (fun (_, _, x) -> x)

(* Costs from three values, so most entries tie; vectors of one to
   three ids up to 12, so printed and integer order differ ("10" <
   "9"); some entries repeated, as the incumbent can be; widths 0-6
   against lists of 0-11 entries.  Each entry's payload is its
   position, so the order among repeats is checked too. *)
let prop_beam_pick_is_sort =
  let gen =
    let open QCheck.Gen in
    let entry =
      pair (oneofl [ 1.0; 2.0; 3.0 ]) (array_size (int_range 1 3) (int_range 0 12))
    in
    list_size (int_range 0 8) entry >>= fun base ->
    (match base with
     | [] -> return []
     | _ -> list_size (int_range 0 3) (oneofl base))
    >>= fun repeats ->
    pair (int_range 0 6) (shuffle_l (base @ repeats))
  in
  let print (width, entries) =
    Printf.sprintf "width %d: [%s]" width
      (String.concat "; " (List.map print_entry entries))
  in
  QCheck.Test.make ~name:"beam pick == stable sort then take" ~count:2000
    (QCheck.make ~print gen)
    (fun (width, entries) ->
      let entries = List.mapi (fun i (q, ids) -> (q, ids, i)) entries in
      Plan.Search.beam_pick width entries = sorted_beam width entries)

(* Every beam the search picks while planning the four programs
   perfbench plans cold (default tiles, T3E, one processor),
   under the default configuration and under [search_cfg] (200 states,
   width 2), equals the oracle's. *)
let test_beam_picks_on_suite () =
  let picks = ref 0 in
  let same (q1, ids1) (q2, ids2) = Float.equal q1 q2 && Vec.equal ids1 ids2 in
  let on_pick width entries picked =
    incr picks;
    let want =
      sorted_beam width (List.map (fun e -> (fst e, snd e, e)) entries)
    in
    if not (List.equal same picked want) then
      Alcotest.failf "width %d over %d entries: picked [%s], the sort takes [%s]"
        width (List.length entries)
        (String.concat "; " (List.map print_entry picked))
        (String.concat "; " (List.map print_entry want))
  in
  List.iter
    (fun cfg ->
      List.iter
        (fun name ->
          let prog = Suite.load name in
          let cost = Plan.Cost.create cost_cfg prog in
          let partition ~block ~compiler ~user g =
            fst
              (Plan.Search.block ~on_pick cfg cost ~block
                 ~candidates:(compiler @ user) g)
          in
          match
            Compilers.Driver.(compile_custom_opts default_opts) prog ~partition
          with
          | Ok _ -> ()
          | Error d -> Alcotest.failf "%s: %s" name (Obs.Diagnostic.to_string d))
        [ "ep"; "frac"; "tomcatv"; "sp" ])
    [ Plan.Search.default; search_cfg ];
  Alcotest.(check bool) "beams were picked" true (!picks > 0)

(* the full chain on a real benchmark, plus checksum equality against
   the greedy ladder — the ILP may only reshuffle loops, never results *)
let test_ilp_chain_and_checksum () =
  let _prog, c, prov = ilp_compile ~procs:16 "simple" in
  let g = prov.Plan.Driver.greedy_total_ns
  and s = prov.Plan.Driver.search_total_ns in
  let i = prov.Plan.Driver.ilp_total_ns in
  Alcotest.(check bool) "ilp <= search" true (i <= s +. 1e-6);
  Alcotest.(check bool) "search <= greedy" true (s <= g +. 1e-6);
  Alcotest.(check bool) "ilp blocks reported" true
    (prov.Plan.Driver.ilp_blocks <> []);
  let greedy =
    match
      Compilers.Driver.compile_opts
        (Compilers.Driver.opts Compilers.Driver.C2F3)
        (let b = Option.get (Suite.by_name "simple") in
         Suite.program ~tile:16 b)
    with
    | Ok g -> g
    | Error d ->
        Alcotest.failf "greedy compile failed: %s" (Obs.Diagnostic.to_string d)
  in
  Alcotest.(check string) "checksum matches greedy"
    (Exec.Interp.checksum (Exec.Interp.run greedy.Compilers.Driver.code))
    (Exec.Interp.checksum (Exec.Interp.run c.Compilers.Driver.code))

(* at procs=1 (no comm term) on a block small enough to enumerate
   completely, the solve must close with a certificate: proved, and
   the certified bound equal to the chosen cost *)
let test_ilp_proves_small_bench () =
  let _prog, _c, prov = ilp_compile ~procs:1 "frac" in
  Alcotest.(check bool) "frac @ procs=1 proved optimal" true
    prov.Plan.Driver.proved_optimal;
  let i = prov.Plan.Driver.ilp_total_ns in
  match prov.Plan.Driver.certified_lb_ns with
  | Some lb ->
      Alcotest.(check bool) "bound brackets the optimum" true
        (lb <= i +. 1e-3 && i <= lb +. 1e-3)
  | None -> Alcotest.fail "proved cell must carry a certified bound"

(* two identical solves must agree bit-for-bit, plans and provenance
   JSON alike — the B&B explores a deterministic tree — and so must
   solves whose columns and search children are priced on a pool of 2
   or 4 domains against the shared probe memo *)
let test_ilp_deterministic () =
  let run jobs =
    let _prog, c, prov = ilp_compile ~procs:4 "sp" ~max_clusters:400 ~jobs in
    (plan_fingerprint c, Obs.Json.to_string (Obs.Codec.encode Plan.Driver.provenance_codec prov))
  in
  let f1, j1 = run 1 in
  List.iter
    (fun jobs ->
      let f, j = run jobs in
      Alcotest.(check string) (Printf.sprintf "same plan at %d jobs" jobs) f1 f;
      Alcotest.(check string)
        (Printf.sprintf "same provenance JSON at %d jobs" jobs)
        j1 j)
    [ 1; 2; 4 ]

let test_never_worse_across_suite () =
  List.iter
    (fun (b : Suite.bench) ->
      let _prog, _c, prov =
        ilp_compile ~procs:16 ~max_clusters:400 b.Suite.name
      in
      Alcotest.(check bool)
        (b.Suite.name ^ " search no worse") true
        (prov.Plan.Driver.chosen_total_ns
        <= prov.Plan.Driver.greedy_total_ns +. 1e-6))
    Suite.all

(* ------------------------------------------------------------------ *)
(* One-period probe vs the stepped simulation                          *)
(* ------------------------------------------------------------------ *)

(* The probe as first written, kept as the oracle: every one of
   [min lines probe_cap] steps simulated, one L1 line per stream per
   step, and the measured misses scaled to [lines]. *)
let stepped_misses (m : Machine.t) key =
  let line = m.Machine.l1.Cachesim.Cache.line_bytes in
  let lines = key.(0) in
  let steps = min lines Plan.Cost.probe_cap in
  let hier =
    Cachesim.Cache.Hierarchy.create ~l1:m.Machine.l1 ?l2:m.Machine.l2 ()
  in
  for i = 0 to steps - 1 do
    for r = 1 to Array.length key - 1 do
      Cachesim.Cache.Hierarchy.access hier ~addr:(key.(r) + (i * line))
        ~write:false
    done
  done;
  let scale = float_of_int lines /. float_of_int steps in
  let misses (s : Cachesim.Cache.stats) =
    float_of_int s.Cachesim.Cache.misses *. scale
  in
  ( misses (Cachesim.Cache.Hierarchy.l1_stats hier),
    match Cachesim.Cache.Hierarchy.l2_stats hier with
    | Some s -> misses s
    | None -> 0.0 )

let same_bits (a1, a2) (b1, b2) =
  Int64.equal (Int64.bits_of_float a1) (Int64.bits_of_float b1)
  && Int64.equal (Int64.bits_of_float a2) (Int64.bits_of_float b2)

(* None of the paper's machines has an L2 line longer than 64 bytes;
   this one has 512-byte L2 lines: 16 L1 lines to a period, and longer
   than the layout's 256-byte alignment floor. *)
let long_l2 =
  {
    Machine.t3e with
    Machine.name = "t3e with 512-byte L2 lines";
    l2 =
      Some
        { Cachesim.Cache.size_bytes = 96 * 1024; line_bytes = 512; assoc = 3 };
  }

let probe_machines = Machine.all @ [ long_l2 ]

let line_sizes (m : Machine.t) =
  List.map
    (fun (c : Cachesim.Cache.config) -> c.Cachesim.Cache.line_bytes)
    (m.Machine.l1 :: Option.to_list m.Machine.l2)

let cost_on m prog =
  Plan.Cost.create
    { Plan.Cost.machine = m; procs = 1; opts = Comm.Model.all_on }
    prog

(* A random sweep: 1–8 arrays, each with room for the sweep plus a
   random pad, and 1–64 streams drawn from them with repeats.  Short
   sweeps are drawn often, so that sweeps shorter than a period occur. *)
let sweep_gen =
  let open QCheck.Gen in
  let* lines = oneof [ int_range 1 4; int_range 1 2000 ] in
  let* pads = list_size (int_range 1 8) (int_range 0 4096) in
  let* picks =
    list_size (int_range 1 64) (int_range 0 (List.length pads - 1))
  in
  return (lines, pads, picks)

let print_sweep (lines, pads, picks) =
  Printf.sprintf "lines %d, pads [%s], streams [%s]" lines
    (String.concat ";" (List.map string_of_int pads))
    (String.concat ";" (List.map string_of_int picks))

(* The sweep's probe key, its streams' bases as Cost.create lays the
   arrays out on [m]. *)
let layout_sweep m (lines, pads, picks) =
  let line = m.Machine.l1.Cachesim.Cache.line_bytes in
  let sweep_elems = ((min lines Plan.Cost.probe_cap * line) + 7) / 8 in
  let name k = Printf.sprintf "a%d" k in
  let prog =
    {
      Prog.name = "sweep";
      arrays =
        List.mapi
          (fun k pad ->
            {
              Prog.name = name k;
              bounds = Region.of_bounds [ (1, sweep_elems + pad) ];
              kind = Prog.User;
            })
          pads;
      scalars = [];
      body = [];
      live_out = [];
    }
  in
  let cost = cost_on m prog in
  let base k = Option.get (Plan.Cost.base cost (name k)) in
  Array.of_list (lines :: List.map base picks)

let prop_probe_period_exact =
  QCheck.Test.make ~name:"one-period probe == stepped simulation" ~count:300
    (QCheck.make ~print:print_sweep sweep_gen)
    (fun case ->
      List.for_all
        (fun m ->
          let key = layout_sweep m case in
          same_bits (Plan.Cost.sweep_misses m key) (stepped_misses m key))
        probe_machines)

let suite_programs () =
  List.concat_map
    (fun (b : Suite.bench) ->
      [
        (b.Suite.name, Suite.program b);
        (b.Suite.name ^ " tile 16", Suite.program ~tile:16 b);
      ])
    Suite.all

(* The exactness argument rests on Cost.create's layout: every base a
   multiple of every line size, and allocations at least the longest
   line apart, so that two arrays never share a line. *)
let test_layout_precondition () =
  let programs = suite_programs () in
  List.iter
    (fun m ->
      let sizes = line_sizes m in
      let longest = List.fold_left max 0 sizes in
      List.iter
        (fun (what, prog) ->
          let cost = cost_on m prog in
          let placed =
            List.sort compare
              (List.map
                 (fun (a : Prog.array_info) ->
                   ( Option.get (Plan.Cost.base cost a.Prog.name),
                     8 * Region.volume a.Prog.bounds,
                     a.Prog.name ))
                 prog.Prog.arrays)
          in
          List.iter
            (fun (b, _, x) ->
              List.iter
                (fun l ->
                  if b mod l <> 0 then
                    Alcotest.failf "%s on %s: %s at %d is not %d-byte aligned"
                      what m.Machine.name x b l)
                sizes)
            placed;
          let rec gaps = function
            | (b1, bytes1, x1) :: ((b2, _, x2) :: _ as tl) ->
                if b2 - (b1 + bytes1) < longest then
                  Alcotest.failf "%s on %s: %s ends %d bytes before %s" what
                    m.Machine.name x1
                    (b2 - (b1 + bytes1))
                    x2;
                gaps tl
            | _ -> ()
          in
          gaps placed)
        programs)
    probe_machines

(* Every column the ILP enumerates on the six suite programs, at
   default tiles and at tile 16, swept with and without its
   contractions on every machine: the memoized one-period count equals
   the stepped simulation bit for bit.  Each (machine, program) pair is
   one task on the domain pool, with its own Cost.t and its own memo of
   the oracle, which is a pure function of the probe key. *)
let probe_exact_on what m prog =
  let cost = cost_on m prog in
  let oracle = Hashtbl.create 4096 in
  let probes = ref 0 in
  let check ~block c ~contracted =
    let contracted = Plan.Cost.flags cost ~block contracted in
    let key = Plan.Cost.sweep cost ~block c ~contracted in
    if key <> [||] then begin
      incr probes;
      let id = String.concat "," (List.map string_of_int (Array.to_list key)) in
      let want =
        match Hashtbl.find_opt oracle id with
        | Some r -> r
        | None ->
            let r = stepped_misses m key in
            Hashtbl.add oracle id r;
            r
      in
      let got = Plan.Cost.cluster_misses cost ~block c ~contracted in
      if not (same_bits got want) then
        Alcotest.failf "%s on %s, block %d, column [%s]: (%h, %h) <> (%h, %h)"
          what m.Machine.name block
          (String.concat ";" (List.map string_of_int c))
          (fst got) (snd got) (fst want) (snd want)
    end
  in
  let partition ~block ~compiler ~user g =
    let t0 = Core.Partition.trivial g in
    let cols, _ = Plan.Ilp.columns Plan.Ilp.default g in
    Array.iter
      (fun c ->
        check ~block c ~contracted:[];
        check ~block c
          ~contracted:
            (Core.Contraction.decide (Core.Partition.merge t0 c)
               ~candidates:(compiler @ user)))
      cols;
    t0
  in
  match Compilers.Driver.(compile_custom_opts default_opts) prog ~partition with
  | Ok _ -> !probes
  | Error d -> Alcotest.failf "%s: %s" what (Obs.Diagnostic.to_string d)

let test_probe_exact_on_suite () =
  let tasks =
    List.concat_map
      (fun m ->
        List.map (fun (what, prog) -> (what, m, prog)) (suite_programs ()))
      Machine.all
  in
  let probes =
    Support.Pool.map ~domains:(Support.Pool.default_domains ())
      (fun (what, m, prog) -> probe_exact_on what m prog)
      tasks
  in
  Alcotest.(check bool) "columns were probed" true
    (List.for_all (fun n -> n > 0) probes)

(* ------------------------------------------------------------------ *)
(* Closed moves vs the full Definition 5 check                         *)
(* ------------------------------------------------------------------ *)

let corpus_programs () =
  let corpus =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".zir")
    |> List.sort compare
    |> List.map (fun f ->
           match Fuzz.Repro.load (Filename.concat "corpus" f) with
           | Ok prog -> (f, prog)
           | Error m -> Alcotest.failf "%s: %s" f m)
  in
  Alcotest.(check bool) "corpus is not empty" true (corpus <> []);
  corpus

(* generated programs drawn denser: rank 1, up to 14 statements, so
   blocks are longer and share regions more often *)
let dense = { Fuzz.Gen.default with Fuzz.Gen.max_stmts = 14; max_rank = 1 }

let generated_programs ?cfg what seed count =
  let rng = Support.Prng.create seed in
  List.init count (fun i ->
      (Printf.sprintf "%s program %d" what (i + 1), Fuzz.Gen.generate ?cfg rng))

(* Core.Partition.check_closed_merge as it was written there, kept as
   the oracle of the search's table verdict: the set's statements read
   off the partition, the labels between them in one pass over the
   ASDG's edges, then Definition 5 (i), (ii) and (iv) in that order. *)
let check_closed_merge p c =
  let g = Core.Partition.asdg p in
  let region i = (Core.Asdg.stmt g i).Nstmt.region in
  let check_stmt_set ss =
    let same_region =
      match ss with
      | [] -> true
      | s0 :: rest ->
          List.for_all (fun i -> Region.equal (region s0) (region i)) rest
    in
    if not same_region then Error Core.Partition.Region_mismatch
    else
      let mem = Array.make (Core.Asdg.n g) false in
      List.iter (fun i -> mem.(i) <- true) ss;
      let within =
        Core.Asdg.edges g
        |> List.concat_map (fun (i, j) ->
               if mem.(i) && mem.(j) then Core.Asdg.labels g i j else [])
      in
      if
        List.exists
          (fun (l : Core.Dep.label) ->
            l.kind = Core.Dep.Flow && not (Vec.is_null l.udv))
          within
      then Error Core.Partition.Nonnull_flow
      else
        match ss with
        | [] -> Ok ()
        | s :: _ ->
            let udvs = List.map (fun (l : Core.Dep.label) -> l.udv) within in
            if Core.Loopstruct.find ~rank:(Region.rank (region s)) udvs <> None
            then Ok ()
            else Error Core.Partition.No_loop_structure
  in
  match c with
  | [] | [ _ ] -> Ok ()
  | _ -> check_stmt_set (Core.Partition.stmts_of p c)

(* Every state the search reaches is acyclic and every merge set it
   tries is closed under GROW, so skipping the cycle check must not
   change a single verdict. *)
let closed_moves_agree what prog =
  let cost = Plan.Cost.create cost_cfg prog in
  let moves = ref 0 in
  let partition ~block ~compiler ~user g =
    let probe p _ =
      List.iter
        (fun c ->
          incr moves;
          if check_closed_merge p c <> Core.Partition.check_merge p c then
            Alcotest.failf "%s, block %d: closed check disagrees on [%s]" what
              block
              (String.concat ";" (List.map string_of_int c)))
        (Plan.Search.merge_sets g p)
    in
    fst
      (Plan.Search.block ~probe Plan.Search.default cost ~block
         ~candidates:(compiler @ user) g)
  in
  match Compilers.Driver.(compile_custom_opts default_opts) prog ~partition with
  | Ok _ -> !moves
  | Error d -> Alcotest.failf "%s: %s" what (Obs.Diagnostic.to_string d)

(* test/corpus, 120 generated programs, 120 more drawn [dense], and
   frac at tile 16 *)
let test_closed_moves_agree () =
  let moves =
    List.fold_left
      (fun acc (what, prog) -> acc + closed_moves_agree what prog)
      0
      (corpus_programs ()
      @ generated_programs "generated" 2026L 120
      @ generated_programs ~cfg:dense "dense generated" 7L 120
      @ [ ("frac tile 16", Suite.load ~tile:16 "frac") ])
  in
  Alcotest.(check bool) "moves were checked" true (moves > 0)

(* ------------------------------------------------------------------ *)
(* Reused-hierarchy probe vs a fresh hierarchy per probe               *)
(* ------------------------------------------------------------------ *)

(* The one-period probe on a hierarchy created for it alone, kept as the
   oracle: Cost.sweep_misses reuses one hierarchy per domain, reads its
   misses as counter deltas and invalidates the sets it touched. *)
let fresh_sweep_misses (m : Machine.t) key =
  let l1_line = m.Machine.l1.Cachesim.Cache.line_bytes in
  let period =
    match m.Machine.l2 with
    | Some l2 -> max 1 (l2.Cachesim.Cache.line_bytes / l1_line)
    | None -> 1
  in
  let hier =
    Cachesim.Cache.Hierarchy.create ~l1:m.Machine.l1 ?l2:m.Machine.l2 ()
  in
  (* misses after the period's first [i] steps *)
  let l1_after = Array.make (period + 1) 0 in
  let l2_after = Array.make (period + 1) 0 in
  for i = 0 to period - 1 do
    for r = 1 to Array.length key - 1 do
      Cachesim.Cache.Hierarchy.access hier ~addr:(key.(r) + (i * l1_line))
        ~write:false
    done;
    l1_after.(i + 1) <-
      (Cachesim.Cache.Hierarchy.l1_stats hier).Cachesim.Cache.misses;
    l2_after.(i + 1) <-
      (match Cachesim.Cache.Hierarchy.l2_stats hier with
      | Some s -> s.Cachesim.Cache.misses
      | None -> 0)
  done;
  let lines = key.(0) in
  let steps = min lines Plan.Cost.probe_cap in
  let count after =
    (steps / period * after.(period)) + after.(steps mod period)
  in
  let scale = float_of_int lines /. float_of_int steps in
  ( float_of_int (count l1_after) *. scale,
    float_of_int (count l2_after) *. scale )

let print_key key =
  String.concat ";" (List.map string_of_int (Array.to_list key))

module Key_table = Hashtbl.Make (Support.Vec)

let check_probe ?(fresh = fresh_sweep_misses) what m key got =
  let want = fresh m key in
  if not (same_bits got want) then
    Alcotest.failf "%s on %s, key [%s]: (%h, %h) <> fresh (%h, %h)" what
      m.Machine.name (print_key key) (fst got) (snd got) (fst want) (snd want)

(* Every key the search and the ILP request on [prog] at jobs 1, so
   every probe runs on this domain's hierarchy: the pair the planner got
   (its memo) and a direct probe made now, between the planners' own,
   both equal the fresh-hierarchy probe.  The search's keys are its
   states' clusters under Core.Contraction.decide's contractions; the
   ILP's are its columns under theirs. *)
let planner_probes_fresh what m prog =
  let cost = cost_on m prog in
  let keys = ref 0 in
  (* the oracle is a pure function of the key: memoize it *)
  let oracle = Key_table.create 4096 in
  let fresh m key =
    match Key_table.find_opt oracle key with
    | Some r -> r
    | None ->
        let r = fresh_sweep_misses m key in
        Key_table.add oracle key r;
        r
  in
  let check ~block c ~contracted =
    let contracted = Plan.Cost.flags cost ~block contracted in
    let key = Plan.Cost.sweep cost ~block c ~contracted in
    if key <> [||] then begin
      incr keys;
      check_probe ~fresh (what ^ " (planner)") m key
        (Plan.Cost.cluster_misses cost ~block c ~contracted);
      check_probe ~fresh (what ^ " (reprobed)") m key
        (Plan.Cost.sweep_misses m key)
    end
  in
  let partition ~block ~compiler ~user g =
    let candidates = compiler @ user in
    let probe p _ =
      let contracted = Core.Contraction.decide p ~candidates in
      List.iter
        (fun c -> check ~block c ~contracted)
        (Core.Partition.clusters p)
    in
    let p, _ =
      Plan.Search.block ~probe Plan.Search.default cost ~block ~candidates g
    in
    ignore (Plan.Ilp.block Plan.Ilp.default cost ~block ~candidates ~seeds:[ p ] g);
    let t0 = Core.Partition.trivial g in
    Array.iter
      (fun c ->
        check ~block c
          ~contracted:
            (Core.Contraction.decide (Core.Partition.merge t0 c) ~candidates))
      (fst (Plan.Ilp.columns Plan.Ilp.default g));
    p
  in
  match Compilers.Driver.(compile_custom_opts default_opts) prog ~partition with
  | Ok _ -> !keys
  | Error d -> Alcotest.failf "%s: %s" what (Obs.Diagnostic.to_string d)

(* test/corpus and the suite at tile 16, on the three machines (sp2 and
   paragon have no L2: a period of one step) *)
let test_probe_reuse_on_planner_keys () =
  let programs =
    corpus_programs ()
    @ List.map
        (fun (b : Suite.bench) ->
          (b.Suite.name ^ " tile 16", Suite.program ~tile:16 b))
        Suite.all
  in
  let keys =
    Support.Pool.map ~domains:(Support.Pool.default_domains ())
      (fun (m, (what, prog)) -> planner_probes_fresh what m prog)
      (List.concat_map
         (fun m -> List.map (fun w -> (m, w)) programs)
         Machine.all)
  in
  Alcotest.(check bool) "keys were probed" true
    (List.fold_left ( + ) 0 keys > 0)

(* A random key: 1–64 streams drawn with repeats from up to 8 bases, some
   of them shorter than a period *)
let random_key rng =
  let pick n = Support.Prng.next_int rng n in
  let pool = Array.init (1 + pick 8) (fun _ -> 8 * pick 65536) in
  let lines = if pick 2 = 0 then 1 + pick 4 else 1 + pick 2000 in
  Array.init (2 + pick 64) (fun r ->
      if r = 0 then lines else pool.(pick (Array.length pool)))

(* 12000 random keys, 3000 on each probe machine in turn, so each reuses
   its hierarchy; then 2000 more with the machine switched at random
   between keys, on the same domain *)
let test_probe_reuse_random () =
  let rng = Support.Prng.create 2026L in
  List.iter
    (fun m ->
      for _ = 1 to 3000 do
        let key = random_key rng in
        check_probe "random" m key (Plan.Cost.sweep_misses m key)
      done)
    probe_machines;
  let machines = Array.of_list probe_machines in
  let m = ref machines.(0) in
  for _ = 1 to 2000 do
    if Support.Prng.next_int rng 3 = 0 then
      m := machines.(Support.Prng.next_int rng (Array.length machines));
    let key = random_key rng in
    check_probe "interleaved" !m key (Plan.Cost.sweep_misses !m key)
  done

(* A probe that raises leaves no dirty hierarchy behind: on 1-byte L1
   lines a negative base indexes no set, after the probe has touched
   base 0 — which the next probe must then miss, as a fresh one does. *)
let test_probe_raise_leaves_fresh () =
  let m =
    {
      Machine.t3e with
      Machine.name = "1-byte L1 lines";
      l1 = { Cachesim.Cache.size_bytes = 64; line_bytes = 1; assoc = 1 };
      l2 = None;
    }
  in
  (match Plan.Cost.sweep_misses m [| 1; 0; -5 |] with
  | _ -> Alcotest.fail "a negative base on 1-byte lines indexes a set"
  | exception Invalid_argument _ -> ());
  check_probe "after a raise" m [| 1; 0 |] (Plan.Cost.sweep_misses m [| 1; 0 |])

(* Past its domain's first probe, a probe allocates no cache: 1000
   probes of a 64-stream T3E key cost under 64 words each, minor plus
   major heap (a fresh T3E hierarchy is about 3.6k words).  OCaml 5's
   [Gc.quick_stat] counts minor words only as of the last minor
   collection; [Gc.counters] also counts the minor heap in use.  The
   loop starts on an empty minor heap, so no collection falls inside
   it to count words allocated before it. *)
let test_probe_allocation () =
  let m = Machine.t3e in
  let key =
    Array.init 65 (fun r -> if r = 0 then 2000 else 256 * (r * 7 mod 23))
  in
  ignore (Plan.Cost.sweep_misses m key);
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  Gc.minor ();
  let w0 = allocated () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Plan.Cost.sweep_misses m key))
  done;
  let per_probe = (allocated () -. w0) /. 1000.0 in
  if per_probe >= 64.0 then
    Alcotest.failf "%.1f words per probe (want < 64)" per_probe

(* ------------------------------------------------------------------ *)
(* Tabulated GROW and one-pass stmts_of vs their first versions        *)
(* ------------------------------------------------------------------ *)

(* GROW as first written, kept as the oracle: per cluster set, a
   forward and a backward DFS over the cluster graph. *)
let dfs_grow p =
  let n = Core.Asdg.n (Core.Partition.asdg p) in
  let reps = Array.of_list (List.map List.hd (Core.Partition.clusters p)) in
  let k = Array.length reps in
  let id = Array.make n (-1) in
  Array.iteri (fun d r -> id.(r) <- d) reps;
  let edges =
    List.map
      (fun (a, b) -> (id.(a), id.(b)))
      (Core.Partition.inter_cluster_edges p)
  in
  let redges = List.map (fun (a, b) -> (b, a)) edges in
  fun c ->
    let c_ids = List.map (fun r -> id.(r)) c in
    let fwd = Support.Toposort.reachable ~n:k ~edges ~from:c_ids in
    let bwd = Support.Toposort.reachable ~n:k ~edges:redges ~from:c_ids in
    let out = ref [] in
    for d = k - 1 downto 0 do
      if fwd.(d) && bwd.(d) && not (List.mem d c_ids) then
        out := reps.(d) :: !out
    done;
    !out

(* stmts_of as first written, kept as the oracle: each cluster's members
   looked up in the partition's cluster list, then sorted. *)
let clusters_stmts_of p c =
  let groups = Core.Partition.clusters p in
  List.concat_map (fun r -> List.find (fun cl -> List.hd cl = r) groups) c
  |> List.sort compare

let print_set c = String.concat ";" (List.map string_of_int c)

(* On state [p]: GROW of every set the search closes (the clusters
   referencing each array, every pair of clusters) and of every merge
   set; and each merge set's statements and verdict.  A merge set is
   grow-closed, so its statements are convex in the statement graph and
   merging them in the trivial partition forms no cycle: check_merge
   there vets conditions (i), (ii) and (iv) of the oracle's statements,
   which is check_closed_merge's verdict. *)
let grow_agrees what g p =
  let grow = Core.Partition.grow p and want = dfs_grow p in
  let t0 = Core.Partition.trivial g in
  let reps = List.map List.hd (Core.Partition.clusters p) in
  let seeds =
    List.filter_map
      (fun x ->
        match
          List.sort_uniq compare
            (List.map (Core.Partition.cluster_of p)
               (Core.Asdg.stmts_referencing g x))
        with
        | [] | [ _ ] -> None
        | c -> Some c)
      (Core.Asdg.vars g)
    @ List.concat_map
        (fun r1 -> List.filter_map (fun r2 -> if r2 > r1 then Some [ r1; r2 ] else None) reps)
        reps
  in
  let merge_sets = Plan.Search.merge_sets g p in
  List.iter
    (fun c ->
      if grow c <> want c then
        Alcotest.failf "%s: grow [%s] = [%s], DFS says [%s]" what (print_set c)
          (print_set (grow c)) (print_set (want c)))
    (seeds @ merge_sets);
  List.iter
    (fun c ->
      let ss = clusters_stmts_of p c in
      if Core.Partition.stmts_of p c <> ss then
        Alcotest.failf "%s: stmts_of [%s] = [%s], clusters say [%s]" what
          (print_set c)
          (print_set (Core.Partition.stmts_of p c))
          (print_set ss);
      if check_closed_merge p c <> Core.Partition.check_merge t0 ss then
        Alcotest.failf "%s: closed check of [%s] disagrees with its statements"
          what (print_set c))
    merge_sets;
  List.length seeds + List.length merge_sets

(* every [every]-th state the search prices, on every block of [prog]:
   a state is priced when it is generated, so [every = 1] covers every
   state it expands *)
let grow_agrees_on ?(every = 1) what prog =
  let sets = ref 0 and priced = ref 0 in
  let cost = Plan.Cost.create cost_cfg prog in
  let partition ~block ~compiler ~user g =
    let probe p _ =
      if !priced mod every = 0 then
        sets :=
          !sets + grow_agrees (Printf.sprintf "%s, block %d" what block) g p;
      incr priced
    in
    fst
      (Plan.Search.block ~probe Plan.Search.default cost ~block
         ~candidates:(compiler @ user) g)
  in
  match Compilers.Driver.(compile_custom_opts default_opts) prog ~partition with
  | Ok _ -> !sets
  | Error d -> Alcotest.failf "%s: %s" what (Obs.Diagnostic.to_string d)

(* Every state the search prices over test/corpus and 200 generated
   programs; every 20th over the suite at default tiles and at tile 16,
   whose 34k states would take minutes to check in full *)
let test_grow_matches_dfs () =
  let tasks =
    List.map
      (fun w -> (1, w))
      (corpus_programs () @ generated_programs "generated" 31L 200)
    @ List.map (fun w -> (20, w)) (suite_programs ())
  in
  let sets =
    Support.Pool.map ~domains:(Support.Pool.default_domains ())
      (fun (every, (what, prog)) -> grow_agrees_on ~every what prog)
      tasks
  in
  Alcotest.(check bool) "sets were grown" true (List.fold_left ( + ) 0 sets > 0)

(* A block of 72 statements (more clusters than one 63-bit word holds):
   X<i> reads two earlier arrays at offsets -1, 0 or 1, so some pairs
   fuse and loop-carried flows keep others apart.  Every 25th state the
   search prices, from the first, and 2000 random cluster sets of the
   trivial partition. *)
let wide_block () =
  let n = 72 in
  let rng = Support.Prng.create 72L in
  let name i = Printf.sprintf "X%d" i in
  let r1 = Region.of_bounds [ (1, 16) ] in
  let read i =
    let j = Support.Prng.next_int rng i in
    Expr.Ref (name j, v [ Support.Prng.next_int rng 3 - 1 ])
  in
  let stmts =
    List.init n (fun i ->
        let rhs =
          if i = 0 then Expr.Ref ("IN", v [ 0 ])
          else Expr.Binop (Expr.Add, read i, read i)
        in
        Nstmt.make ~region:r1 ~lhs:(name i) rhs)
  in
  let array x =
    { Prog.name = x; bounds = Region.of_bounds [ (0, 17) ]; kind = Prog.User }
  in
  let prog =
    {
      Prog.name = "wide";
      arrays = array "IN" :: List.init n (fun i -> array (name i));
      scalars = [];
      body = List.map (fun s -> Prog.Astmt s) stmts;
      live_out = [ "IN" ];
    }
  in
  (rng, n, List.init n name, prog, Core.Asdg.build stmts)

let test_grow_matches_dfs_wide () =
  let rng, n, names, prog, g = wide_block () in
  let cost = Plan.Cost.create cost_cfg prog in
  let priced = ref 0 and checked = ref 0 in
  let probe p _ =
    if !priced mod 25 = 0 then begin
      incr checked;
      ignore (grow_agrees "wide block" g p)
    end;
    incr priced
  in
  ignore
    (Plan.Search.block ~probe search_cfg cost ~block:0 ~candidates:names g);
  Alcotest.(check bool) "states were checked" true (!checked > 1);
  let t0 = Core.Partition.trivial g in
  let grow = Core.Partition.grow t0 and want = dfs_grow t0 in
  for _ = 1 to 2000 do
    let c =
      List.sort_uniq compare
        (List.init (1 + Support.Prng.next_int rng 6) (fun _ ->
             Support.Prng.next_int rng n))
    in
    if grow c <> want c then
      Alcotest.failf "wide block: grow [%s] = [%s], DFS says [%s]"
        (print_set c) (print_set (grow c)) (print_set (want c))
  done

(* ------------------------------------------------------------------ *)
(* The pair table's verdict vs check_closed_merge                      *)
(* ------------------------------------------------------------------ *)

(* On every [every]-th state the search prices on one block, from the
   first (with [every = 1], every state it expands among them): the
   verdict the search acts on, from one pair table kept across the
   block's states as the search keeps its own, equals
   check_closed_merge's on each merge set.  The oracle is a pure
   function of the set's statements, so it is memoized on them. *)
let table_verdicts_agree ?(every = 1) what g search =
  let pairs = Plan.Pairs.create g in
  let oracle = Key_table.create 4096 in
  let sets = ref 0 and priced = ref 0 in
  let check p (c, got) =
    incr sets;
    let ss = Array.of_list (Core.Partition.stmts_of p c) in
    let want =
      match Key_table.find_opt oracle ss with
      | Some v -> v
      | None ->
          let v = check_closed_merge p c in
          Key_table.add oracle ss v;
          v
    in
    if got <> want then
      Alcotest.failf
        "%s: the table's verdict on [%s] is not check_closed_merge's" what
        (print_set c)
  in
  let probe p _ =
    if !priced mod every = 0 then
      List.iter (check p) (Plan.Search.vetted pairs p);
    incr priced
  in
  ignore (search ~probe);
  !sets

let table_verdicts_on what prog =
  let cost = Plan.Cost.create cost_cfg prog in
  let sets = ref 0 in
  let partition ~block ~compiler ~user g =
    let p = ref None in
    sets :=
      !sets
      + table_verdicts_agree (Printf.sprintf "%s, block %d" what block) g
          (fun ~probe ->
            p :=
              Some
                (fst
                   (Plan.Search.block ~probe Plan.Search.default cost ~block
                      ~candidates:(compiler @ user) g)));
    Option.get !p
  in
  match Compilers.Driver.(compile_custom_opts default_opts) prog ~partition with
  | Ok _ -> !sets
  | Error d -> Alcotest.failf "%s: %s" what (Obs.Diagnostic.to_string d)

(* Every state of test/corpus and 200 generated programs, and every
   5th of the 72-statement block, whose statement sets span two words:
   it prices about 800 states of some 5800 merge sets each, nearly all
   of them children it never expands, and checking them all would take
   four times as long as this whole test *)
let test_table_verdicts () =
  let wide () =
    let _, _, names, prog, g = wide_block () in
    let cost = Plan.Cost.create cost_cfg prog in
    table_verdicts_agree ~every:5 "wide block" g (fun ~probe ->
        Plan.Search.block ~probe search_cfg cost ~block:0 ~candidates:names g)
  in
  let sets =
    Support.Pool.map ~domains:(Support.Pool.default_domains ())
      (fun task -> task ())
      (wide
      :: List.map
           (fun (what, prog) () -> table_verdicts_on what prog)
           (corpus_programs () @ generated_programs "generated" 37L 200))
  in
  Alcotest.(check bool) "sets were vetted" true
    (List.hd sets > 0 && List.fold_left ( + ) 0 sets > 0)

(* ------------------------------------------------------------------ *)
(* Index-keyed probe keys vs name-keyed ones                           *)
(* ------------------------------------------------------------------ *)

(* Plan.Cost.sweep as it was written there, kept as the oracle: each
   stream named by its array, and the contracted arrays a name list
   searched per stream. *)
let named_sweep cost g members ~contracted =
  let bases =
    List.concat_map
      (fun i ->
        let s = Core.Asdg.stmt g i in
        List.filter_map
          (fun x ->
            if List.mem x contracted then None
            else Some (Option.value ~default:0 (Plan.Cost.base cost x)))
          (s.Nstmt.lhs :: List.map fst (Expr.refs s.Nstmt.rhs)))
      members
  in
  match bases with
  | [] -> [||]
  | _ ->
      let s = Core.Asdg.stmt g (List.hd members) in
      let lines = Plan.Cost.lines_of_volume cost (Region.volume s.Nstmt.region) in
      Array.of_list (lines :: bases)

(* Every cluster the planners probe on [prog]: each cluster of each
   state the search prices, under Core.Contraction.decide's
   contractions, and each ILP column under decide's contractions and
   under w(C)'s (the eligible candidates confined to it).  The key
   built from slot flags equals the name-keyed one. *)
let sweeps_agree what cfg prog =
  let cost = Plan.Cost.create cfg prog in
  let keys = ref 0 in
  let partition ~block ~compiler ~user g =
    let candidates = compiler @ user in
    let check c contracted =
      incr keys;
      let got =
        Plan.Cost.sweep cost ~block c
          ~contracted:(Plan.Cost.flags cost ~block contracted)
      in
      if got <> named_sweep cost g c ~contracted then
        Alcotest.failf "%s, block %d: key of [%s] without [%s]" what block
          (print_set c) (String.concat ";" contracted)
    in
    let probe p _ =
      let contracted = Core.Contraction.decide p ~candidates in
      List.iter (fun c -> check c contracted) (Core.Partition.clusters p)
    in
    let p, _ =
      Plan.Search.block ~probe Plan.Search.default cost ~block ~candidates g
    in
    let t0 = Core.Partition.trivial g in
    let tbl = Plan.Cost.facts cost ~block ~candidates g in
    Array.iter
      (fun c ->
        check c
          (Core.Contraction.decide (Core.Partition.merge t0 c) ~candidates);
        check c
          (List.filteri
             (fun k _ ->
               let f = tbl.Plan.Cost.cands.(k) in
               f.Plan.Cost.eligible
               && Array.for_all (fun i -> List.mem i c) f.Plan.Cost.refs)
             candidates))
      (fst (Plan.Ilp.columns Plan.Ilp.default g));
    p
  in
  match Compilers.Driver.(compile_custom_opts default_opts) prog ~partition with
  | Ok _ -> !keys
  | Error d -> Alcotest.failf "%s: %s" what (Obs.Diagnostic.to_string d)

(* test/corpus and the suite at tile 16, on every machine (each lays
   the arrays out at its own alignment) *)
let test_sweeps_match_names () =
  let programs =
    corpus_programs ()
    @ List.map
        (fun (b : Suite.bench) ->
          (b.Suite.name ^ " tile 16", Suite.program ~tile:16 b))
        Suite.all
  in
  let keys =
    Support.Pool.map ~domains:(Support.Pool.default_domains ())
      (fun (machine, (what, prog)) ->
        sweeps_agree what
          { Plan.Cost.machine; procs = 1; opts = Comm.Model.all_on }
          prog)
      (List.concat_map
         (fun m -> List.map (fun w -> (m, w)) programs)
         Machine.all)
  in
  Alcotest.(check bool) "keys were built" true
    (List.fold_left ( + ) 0 keys > 0)

(* ------------------------------------------------------------------ *)
(* Column-list LP tableau vs the List.mem fill                         *)
(* ------------------------------------------------------------------ *)

(* Plan.Ilp's starting tableau as it was filled there, kept as the
   oracle: one List.mem per (statement row, active column) cell. *)
let mem_tableau cols ~act_cols ~eq_rows ~cut_rows =
  let n_act = Array.length act_cols in
  let n_eq = Array.length eq_rows in
  let n_cut = Array.length cut_rows in
  let m = n_eq + n_cut in
  let width = n_act + n_cut + n_eq in
  let art_from = n_act + n_cut in
  let a = Array.make_matrix m width 0.0 in
  let b = Array.make m 0.0 in
  let basis = Array.make m 0 in
  Array.iteri
    (fun r stmt ->
      Array.iteri
        (fun j id -> if List.mem stmt cols.(id) then a.(r).(j) <- 1.0)
        act_cols;
      a.(r).(art_from + r) <- 1.0;
      b.(r) <- 1.0;
      basis.(r) <- art_from + r)
    eq_rows;
  Array.iteri
    (fun k (members, rhs) ->
      let r = n_eq + k in
      List.iter (fun j -> a.(r).(j) <- 1.0) members;
      a.(r).(n_act + k) <- 1.0;
      b.(r) <- float_of_int rhs;
      basis.(r) <- n_act + k)
    cut_rows;
  (a, b, basis)

(* On every block of the suite at default tiles and at tile 16: the
   root node (every column active, every statement a row, no cut), and
   nodes with the columns of an ascending run of disjoint multi-
   statement columns fixed to 1, the columns they cover dropped, and
   one cut over the first active columns. *)
let tableaus_agree what prog =
  let nodes = ref 0 in
  let partition ~block ~compiler:_ ~user:_ g =
    let n = Core.Asdg.n g in
    let cols, _ = Plan.Ilp.columns Plan.Ilp.default g in
    let check ~covered ~cut_rows =
      incr nodes;
      let act_cols =
        Array.of_list
          (List.filter
             (fun id -> not (List.exists (fun s -> covered.(s)) cols.(id)))
             (List.init (Array.length cols) Fun.id))
      in
      let eq_rows =
        Array.of_list
          (List.filter (fun s -> not covered.(s)) (List.init n Fun.id))
      in
      let cut_rows = cut_rows (Array.length act_cols) in
      if
        Plan.Ilp.tableau ~n cols ~act_cols ~eq_rows ~cut_rows
        <> mem_tableau cols ~act_cols ~eq_rows ~cut_rows
      then
        Alcotest.failf "%s, block %d: tableau with %d rows covered" what block
          (Array.fold_left (fun k c -> if c then k + 1 else k) 0 covered)
    in
    check ~covered:(Array.make n false) ~cut_rows:(fun _ -> [||]);
    let covered = Array.make n false in
    Array.iter
      (fun c ->
        if
          List.length c > 1 && not (List.exists (fun s -> covered.(s)) c)
        then begin
          List.iter (fun s -> covered.(s) <- true) c;
          check ~covered ~cut_rows:(fun k ->
              if k >= 3 then [| ([ 0; 1; k - 1 ], 2) |] else [||])
        end)
      cols;
    Core.Partition.trivial g
  in
  match Compilers.Driver.(compile_custom_opts default_opts) prog ~partition with
  | Ok _ -> !nodes
  | Error d -> Alcotest.failf "%s: %s" what (Obs.Diagnostic.to_string d)

let test_tableau_matches_mem () =
  let nodes =
    Support.Pool.map ~domains:(Support.Pool.default_domains ())
      (fun (what, prog) -> tableaus_agree what prog)
      (suite_programs ())
  in
  Alcotest.(check bool) "tableaus were built" true
    (List.fold_left ( + ) 0 nodes > 0)

(* ------------------------------------------------------------------ *)
(* Delta-priced search states vs Cost.block_cost                       *)
(* ------------------------------------------------------------------ *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every state the search prices, trivial and greedy seeds and beam
   children alike: its delta-priced breakdown equals Cost.block_cost
   under Core.Contraction.decide's contractions, bit for bit. *)
let delta_exact what ~procs prog =
  let cost =
    Plan.Cost.create
      { Plan.Cost.machine = Machine.t3e; procs; opts = Comm.Model.all_on }
      prog
  in
  let states = ref 0 in
  let partition ~block ~compiler ~user g =
    let candidates = compiler @ user in
    let probe p (got : Plan.Cost.breakdown) =
      incr states;
      let contracted = Core.Contraction.decide p ~candidates in
      let want =
        Plan.Cost.block_cost cost ~block
          {
            Sir.Scalarize.partition = p;
            contracted =
              List.map (fun x -> (x, Core.Contraction.Scalar)) contracted;
            absorbed = [];
          }
      in
      let fields (b : Plan.Cost.breakdown) =
        Plan.Cost.[ b.flop_ns; b.ref_ns; b.miss_ns; b.comm_ns; b.total_ns ]
      in
      if
        not
          (List.for_all2 same_float (fields got) (fields want)
          && got.Plan.Cost.contracted_elems = want.Plan.Cost.contracted_elems)
      then
        Alcotest.failf
          "%s at procs %d, block %d, state %s: delta %h ns <> block_cost %h ns"
          what procs block
          (String.concat "|"
             (List.map
                (fun c -> String.concat "," (List.map string_of_int c))
                (Core.Partition.clusters p)))
          got.Plan.Cost.total_ns want.Plan.Cost.total_ns
    in
    fst (Plan.Search.block ~probe Plan.Search.default cost ~block ~candidates g)
  in
  match Compilers.Driver.(compile_custom_opts default_opts) prog ~partition with
  | Ok _ -> !states
  | Error d -> Alcotest.failf "%s: %s" what (Obs.Diagnostic.to_string d)

(* test/corpus, 200 generated programs and the suite at tile 16, at
   procs 1 (no communication term) and 16 *)
let test_delta_pricing_exact () =
  let programs =
    corpus_programs ()
    @ generated_programs "generated" 19L 200
    @ List.map
        (fun (b : Suite.bench) ->
          (b.Suite.name ^ " tile 16", Suite.program ~tile:16 b))
        Suite.all
  in
  let states =
    Support.Pool.map ~domains:(Support.Pool.default_domains ())
      (fun (procs, (what, prog)) -> delta_exact what ~procs prog)
      (List.concat_map (fun procs -> List.map (fun w -> (procs, w)) programs) [ 1; 16 ])
  in
  Alcotest.(check bool) "states were priced" true
    (List.fold_left ( + ) 0 states > 0)

(* ------------------------------------------------------------------ *)
(* Incremental column DFS vs the check_merge enumeration               *)
(* ------------------------------------------------------------------ *)

(* The column enumeration as first written, kept as the oracle: the
   same ascending-index DFS, every extension vetted by a full
   Core.Partition.check_merge on the trivial partition. *)
let check_merge_columns (cfg : Plan.Ilp.cfg) g =
  let n = Core.Asdg.n g in
  let t0 = Core.Partition.trivial g in
  let compat = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match Core.Partition.check_merge t0 [ i; j ] with
      | Ok () | Error Core.Partition.Cycle ->
          compat.(i).(j) <- true;
          compat.(j).(i) <- true
      | Error _ -> ()
    done
  done;
  let cols = ref [] in
  let count = ref 0 in
  let explored = ref 0 in
  let complete = ref true in
  let explore_cap = 32 * cfg.Plan.Ilp.max_clusters in
  let exception Enough in
  let emit c =
    if !count >= cfg.Plan.Ilp.max_clusters then begin
      complete := false;
      raise Enough
    end;
    incr count;
    cols := c :: !cols
  in
  (try
     for s = 0 to n - 1 do
       emit [ s ]
     done;
     let rec extend rev_members last =
       for next = last + 1 to n - 1 do
         if List.for_all (fun m -> compat.(m).(next)) rev_members then begin
           incr explored;
           if !explored > explore_cap then begin
             complete := false;
             raise Enough
           end;
           let c = List.rev (next :: rev_members) in
           match Core.Partition.check_merge t0 c with
           | Ok () ->
               emit c;
               extend (next :: rev_members) next
           | Error _ -> ()
         end
       done
     in
     for s = 0 to n - 1 do
       extend [ s ] s
     done
   with Enough -> ());
  (Array.of_list (List.rev !cols), !complete)

(* Every block of [prog], at column caps 4000 and 50: the same columns
   in the same order, and the same [complete] flag. *)
let columns_agree what prog =
  let cases = ref 0 in
  let partition ~block ~compiler:_ ~user:_ g =
    List.iter
      (fun max_clusters ->
        incr cases;
        let cfg = { Plan.Ilp.default with Plan.Ilp.max_clusters } in
        let cols, complete = Plan.Ilp.columns cfg g in
        let want_cols, want_complete = check_merge_columns cfg g in
        if complete <> want_complete then
          Alcotest.failf "%s, block %d, cap %d: complete %b <> %b" what block
            max_clusters complete want_complete;
        if cols <> want_cols then
          Alcotest.failf "%s, block %d, cap %d: %d columns <> %d (first: %s)"
            what block max_clusters (Array.length cols)
            (Array.length want_cols)
            (let k = ref 0 in
             while
               !k < min (Array.length cols) (Array.length want_cols)
               && cols.(!k) = want_cols.(!k)
             do
               incr k
             done;
             Printf.sprintf "differ at column %d" !k))
      [ 4000; 50 ];
    Core.Partition.trivial g
  in
  match Compilers.Driver.(compile_custom_opts default_opts) prog ~partition with
  | Ok _ -> !cases
  | Error d -> Alcotest.failf "%s: %s" what (Obs.Diagnostic.to_string d)

(* test/corpus, the suite and its rank-3 extra at default tiles and at
   tile 16, 450 generated programs and 450 denser ones *)
let test_columns_match_check_merge () =
  let suite =
    List.concat_map
      (fun (b : Suite.bench) ->
        [
          (b.Suite.name, Suite.program b);
          (b.Suite.name ^ " tile 16", Suite.program ~tile:16 b);
        ])
      (Suite.all @ Suite.extras)
  in
  let programs =
    corpus_programs () @ suite
    @ generated_programs "generated" 23L 450
    @ generated_programs ~cfg:dense "dense generated" 29L 450
  in
  let cases =
    Support.Pool.map ~domains:(Support.Pool.default_domains ())
      (fun (what, prog) -> columns_agree what prog)
      programs
  in
  Alcotest.(check bool) "blocks were enumerated" true
    (List.fold_left ( + ) 0 cases > 0)

(* ------------------------------------------------------------------ *)
(* Plan.Cost's block terms vs the planners' former copies              *)
(* ------------------------------------------------------------------ *)

(* The ILP's column pricing as it was written in Plan.Ilp before
   Plan.Cost priced clusters for both planners, kept as the oracle:
   its own per-statement reference counts and per-candidate facts, a
   list subset test, and the same float association. *)
let ilp_facts g ~candidates =
  ( Array.map
      (fun (s : Nstmt.t) ->
        (1 + List.length (Expr.refs s.Nstmt.rhs))
        * Region.volume s.Nstmt.region)
      (Core.Asdg.stmts g),
    List.map
      (fun x ->
        ( x,
          Core.Asdg.stmts_referencing g x,
          Core.Contraction.scalar_if_confined g x ))
      candidates )

let rec ilp_subset a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
      if x = y then ilp_subset a' b' else x > y && ilp_subset a b'

let ilp_cluster_weight cost (stmt_refs, cands) ~mult ~block c =
  let m = (Plan.Cost.cfg cost).Plan.Cost.machine in
  let contracted =
    List.filter_map
      (fun (x, refs, eligible) ->
        if eligible && ilp_subset refs c then Some x else None)
      cands
  in
  let refs = List.fold_left (fun acc i -> acc + stmt_refs.(i)) 0 c in
  let saved =
    List.fold_left
      (fun acc x -> acc + Plan.Cost.block_weight cost ~block x)
      0 contracted
  in
  let l1m, l2m =
    Plan.Cost.cluster_misses cost ~block c
      ~contracted:(Plan.Cost.flags cost ~block contracted)
  in
  mult
  *. ((float_of_int (refs - saved) *. m.Machine.l1_hit_ns)
     +. (l1m *. m.Machine.l1_miss_ns)
     +. (l2m *. m.Machine.l2_miss_ns))

let decided_plan p ~candidates =
  {
    Sir.Scalarize.partition = p;
    contracted =
      List.map
        (fun x -> (x, Core.Contraction.Scalar))
        (Core.Contraction.decide p ~candidates);
    absorbed = [];
  }

(* The flop term as Plan.Ilp read it: a full block_cost of the trivial
   partition. *)
let trivial_flop_ns cost ~block ~candidates g =
  (Plan.Cost.block_cost cost ~block
     (decided_plan (Core.Partition.trivial g) ~candidates))
    .Plan.Cost.flop_ns

(* Plan.Search's per-block table as it was written there: per
   candidate, (refs, weight) and its eligibility. *)
let search_table cost ~block ~candidates g =
  let names = Array.of_list candidates in
  ( names,
    Array.map
      (fun x ->
        ( Array.of_list (Core.Asdg.stmts_referencing g x),
          Plan.Cost.block_weight cost ~block x ))
      names,
    Array.map (Core.Contraction.scalar_if_confined g) names )

let check_facts what (tbl : Plan.Cost.facts) (names, cands, eligible) =
  if tbl.Plan.Cost.names <> names then
    Alcotest.failf "%s: candidate names" what;
  Array.iteri
    (fun k (f : Plan.Cost.array_facts) ->
      if
        not
          ((f.Plan.Cost.refs, f.weight) = cands.(k)
          && f.Plan.Cost.eligible = eligible.(k))
      then Alcotest.failf "%s: facts of candidate %s" what names.(k))
    tbl.cands

(* One program on one cost configuration, every block: the fact table
   equals search_table's, the flop term the trivial partition's
   flop_ns, and w(C) the ILP's own pricing on every column the ILP
   enumerates, bit for bit; and for every partition the ILP ranks,
   Σ_C w(C) + flop term is block_cost − comm_ns within Cost.eps. *)
let cost_terms_exact what cfg prog =
  let cost = Plan.Cost.create cfg prog in
  let mults, _ = Comm.Model.block_multipliers (Prog.skeleton prog) in
  let columns = ref 0 in
  let where block =
    Printf.sprintf "%s on %s x%d, block %d" what
      cfg.Plan.Cost.machine.Machine.name cfg.Plan.Cost.procs block
  in
  let partition ~block ~compiler ~user g =
    let candidates = compiler @ user in
    let tbl = Plan.Cost.facts cost ~block ~candidates g in
    check_facts (where block) tbl (search_table cost ~block ~candidates g);
    let flop = Plan.Cost.flop_ns cost ~block in
    if not (same_float flop (trivial_flop_ns cost ~block ~candidates g)) then
      Alcotest.failf "%s: flop term %h" (where block) flop;
    let oracle = ilp_facts g ~candidates in
    let cols, _ = Plan.Ilp.columns Plan.Ilp.default g in
    Array.iter
      (fun c ->
        incr columns;
        let got = Plan.Cost.cluster_weight cost ~block tbl c in
        let want =
          ilp_cluster_weight cost oracle
            ~mult:(float_of_int mults.(block))
            ~block c
        in
        if not (same_float got want) then
          Alcotest.failf "%s, column [%s]: w(C) %h <> %h" (where block)
            (String.concat ";" (List.map string_of_int c))
            got want)
      cols;
    let probe p =
      let bd = Plan.Cost.block_cost cost ~block (decided_plan p ~candidates) in
      let sep =
        List.fold_left
          (fun acc c -> acc +. Plan.Cost.cluster_weight cost ~block tbl c)
          0.0 (Core.Partition.clusters p)
        +. flop
      in
      let want = bd.Plan.Cost.total_ns -. bd.Plan.Cost.comm_ns in
      if Float.abs (sep -. want) > Plan.Cost.eps then
        Alcotest.failf "%s: Σ w(C) + flop %h <> block_cost - comm %h"
          (where block) sep want
    in
    fst (Plan.Ilp.block ~probe Plan.Ilp.default cost ~block ~candidates g)
  in
  match Compilers.Driver.(compile_custom_opts default_opts) prog ~partition with
  | Ok _ -> !columns
  | Error d -> Alcotest.failf "%s: %s" what (Obs.Diagnostic.to_string d)

(* test/corpus, the seven suite programs at default tiles and at tile
   16, and 200 generated programs, on every machine at procs 1 and 16 *)
let test_cost_terms_exact () =
  let programs =
    corpus_programs ()
    @ List.concat_map
        (fun (b : Suite.bench) ->
          [
            (b.Suite.name, Suite.program b);
            (b.Suite.name ^ " tile 16", Suite.program ~tile:16 b);
          ])
        (Suite.all @ Suite.extras)
    @ generated_programs "generated" 31L 200
  in
  let cfgs =
    List.concat_map
      (fun machine ->
        List.map
          (fun procs -> { Plan.Cost.machine; procs; opts = Comm.Model.all_on })
          [ 1; 16 ])
      Machine.all
  in
  let columns =
    Support.Pool.map ~domains:(Support.Pool.default_domains ())
      (fun (cfg, (what, prog)) -> cost_terms_exact what cfg prog)
      (List.concat_map (fun cfg -> List.map (fun w -> (cfg, w)) programs) cfgs)
  in
  Alcotest.(check bool) "columns were priced" true
    (List.fold_left ( + ) 0 columns > 0)

let suites =
  [
    ( "plan",
      [
        Alcotest.test_case "cost prefers contraction" `Quick
          test_cost_prefers_contraction;
        Alcotest.test_case "probe memo never changes an answer" `Quick
          test_probe_memo_exact;
        QCheck_alcotest.to_alcotest prop_probe_period_exact;
        Alcotest.test_case "layout aligns to every line size" `Quick
          test_layout_precondition;
        Alcotest.test_case "one-period probe exact on suite columns" `Slow
          test_probe_exact_on_suite;
        Alcotest.test_case "reused probe == fresh probe on planner keys" `Slow
          test_probe_reuse_on_planner_keys;
        Alcotest.test_case "reused probe == fresh probe on random keys" `Quick
          test_probe_reuse_random;
        Alcotest.test_case "a raising probe leaves a fresh hierarchy" `Quick
          test_probe_raise_leaves_fresh;
        Alcotest.test_case "a probe allocates no cache" `Quick
          test_probe_allocation;
        Alcotest.test_case "closed moves agree with check_merge" `Slow
          test_closed_moves_agree;
        Alcotest.test_case "tabulated GROW and stmts_of match their oracles"
          `Slow test_grow_matches_dfs;
        Alcotest.test_case "tabulated GROW past one word matches DFS" `Slow
          test_grow_matches_dfs_wide;
        Alcotest.test_case "pair-table verdicts match check_closed_merge"
          `Slow test_table_verdicts;
        Alcotest.test_case "slot-keyed probe keys match name-keyed" `Slow
          test_sweeps_match_names;
        Alcotest.test_case "column-list tableau matches List.mem fill" `Slow
          test_tableau_matches_mem;
        Alcotest.test_case "delta-priced states equal block_cost" `Slow
          test_delta_pricing_exact;
        Alcotest.test_case "column DFS matches check_merge enumeration" `Slow
          test_columns_match_check_merge;
        Alcotest.test_case "facts, flop term and w(C) match oracles"
          `Slow test_cost_terms_exact;
        Alcotest.test_case "simple: search beats greedy, checksum equal" `Slow
          test_simple_search_wins;
        Alcotest.test_case "parallel search matches sequential" `Slow
          test_parallel_search_deterministic;
        Alcotest.test_case "budget-cut beam deterministic across jobs" `Slow
          test_budget_cut_beam_deterministic;
        Alcotest.test_case "budget does not bind on plan-cold programs" `Slow
          test_budget_does_not_bind;
        QCheck_alcotest.to_alcotest prop_beam_pick_is_sort;
        Alcotest.test_case "every suite beam pick matches the sort" `Slow
          test_beam_picks_on_suite;
        Alcotest.test_case "ilp chain holds, checksum equal" `Slow
          test_ilp_chain_and_checksum;
        Alcotest.test_case "ilp proves small bench optimal" `Slow
          test_ilp_proves_small_bench;
        Alcotest.test_case "ilp deterministic plans and provenance" `Slow
          test_ilp_deterministic;
        Alcotest.test_case "search never worse across suite" `Slow
          test_never_worse_across_suite;
        QCheck_alcotest.to_alcotest prop_search_states_valid;
        QCheck_alcotest.to_alcotest prop_search_never_worse;
        QCheck_alcotest.to_alcotest prop_ilp_partitions_valid;
        QCheck_alcotest.to_alcotest prop_ilp_never_worse;
        QCheck_alcotest.to_alcotest prop_ilp_bound_sound;
        QCheck_alcotest.to_alcotest prop_pricing_is_silent;
      ] );
  ]
