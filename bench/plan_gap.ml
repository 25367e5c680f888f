(* Planner gap: the search-based planner and the ILP partitioner
   (lib/plan) against the paper's greedy c2+f3 ladder, priced by the
   same unified cost model, over the whole suite and every machine.

   For each (benchmark, machine, procs) configuration the chain
   ilp <= search <= greedy must hold under the model — search is
   seeded with the greedy partition and the ILP solve is seeded with
   the searched partitions, so any inversion is a planner bug and
   fails the bench (exit 1) — and every planner's interpreter
   checksum must equal the greedy program's (plans may differ;
   results may not).

   When the ILP's column enumeration completed on every block the row
   also carries the certified lower bound, and cert_gap_pct says how
   far the chosen plan sits above it (0 on proved-optimal cells).

   With --json the section also writes BENCH_plan_gap.json to the
   current directory: the committed baseline of greedy vs searched vs
   ILP cost per configuration.  Deterministic, so a re-run diffs
   clean when nothing changed. *)

let machines = [ Machine.t3e; Machine.sp2; Machine.paragon ]

let procs_list = [ 1; 16 ]

let tile_of (b : Suite.bench) =
  if !Harness.tiny_mode then Some (if b.rank = 1 then 256 else 16) else None

type rowr = {
  bench : string;
  machine : string;
  procs : int;
  greedy_ns : float;
  search_ns : float;
  ilp_ns : float;
  chosen : string;
  gap_pct : float;  (* 100 × (greedy − search) / greedy *)
  ilp_gap_pct : float;  (* 100 × (greedy − ilp) / greedy *)
  cert_gap_pct : float option;
      (* 100 × (chosen − certified lb) / chosen, when certified *)
  improved : bool;
  fallback : bool;
  proved : bool;  (* every block closed with an exact optimality proof *)
  certified_lb_ns : float option;
  states : int;  (* search cost evaluations across all blocks *)
  beam_rounds : int;
  ilp_columns : int;  (* enumerated valid clusters across all blocks *)
  ilp_nodes : int;  (* branch-and-cut nodes across all blocks *)
  checksum : string;
  ok : bool;  (* ilp ≤ search ≤ greedy AND checksums agree *)
}

let row_json r =
  let opt_float = function
    | Some f -> Obs.Json.Float f
    | None -> Obs.Json.Null
  in
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String r.bench);
      ("machine", Obs.Json.String r.machine);
      ("procs", Obs.Json.Int r.procs);
      ("greedy_ns", Obs.Json.Float r.greedy_ns);
      ("search_ns", Obs.Json.Float r.search_ns);
      ("ilp_ns", Obs.Json.Float r.ilp_ns);
      ("chosen", Obs.Json.String r.chosen);
      ("gap_pct", Obs.Json.Float r.gap_pct);
      ("ilp_gap_pct", Obs.Json.Float r.ilp_gap_pct);
      ("cert_gap_pct", opt_float r.cert_gap_pct);
      ("improved", Obs.Json.Bool r.improved);
      ("fallback", Obs.Json.Bool r.fallback);
      ("proved_optimal", Obs.Json.Bool r.proved);
      ("certified_lb_ns", opt_float r.certified_lb_ns);
      ("states", Obs.Json.Int r.states);
      ("beam_rounds", Obs.Json.Int r.beam_rounds);
      ("ilp_columns", Obs.Json.Int r.ilp_columns);
      ("ilp_nodes", Obs.Json.Int r.ilp_nodes);
      ("checksum", Obs.Json.String r.checksum);
      ("ok", Obs.Json.Bool r.ok);
    ]

(* CI-smoke budget: the full solve is the committed baseline's job *)
let search_cfg () =
  if !Harness.tiny_mode then
    { Plan.Search.default with Plan.Search.max_states = 600; beam_width = 2 }
  else Plan.Search.default

let ilp_cfg () =
  if !Harness.tiny_mode then
    { Plan.Ilp.default with Plan.Ilp.max_clusters = 400; max_pivots = 20_000 }
  else Plan.Ilp.default

(* checksums only depend on the generated code, not the machine the
   plan was priced for — cache them across the machine × procs sweep.
   Cells run on a pool, so the table is behind a lock; a racing miss
   recomputes the (deterministic) checksum, which is benign. *)
let checksum_cache : (string, string) Hashtbl.t = Hashtbl.create 64
let checksum_lock = Mutex.create ()

let checksum_of ~key code =
  match
    Mutex.protect checksum_lock (fun () -> Hashtbl.find_opt checksum_cache key)
  with
  | Some s -> s
  | None ->
      let s = Exec.Interp.checksum (Exec.Interp.run code) in
      Mutex.protect checksum_lock (fun () ->
          Hashtbl.replace checksum_cache key s);
      s

let plan_signature (c : Compilers.Driver.compiled) =
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

let measure (b : Suite.bench) (machine : Machine.t) procs =
  let prog = Suite.program ?tile:(tile_of b) b in
  let greedy = Harness.compile ~level:Compilers.Driver.C2F3 prog in
  let cost =
    Plan.Cost.create { Plan.Cost.machine; procs; opts = Comm.Model.all_on } prog
  in
  let chosen, prov =
    match
      Plan.Driver.compile_ilp ~search:(search_cfg ()) ~ilp:(ilp_cfg ()) ~cost
        prog
    with
    | Ok r -> r
    | Error d ->
        Printf.eprintf "bench: %s\n" (Obs.Diagnostic.to_string d);
        exit 1
  in
  let greedy_sum =
    checksum_of ~key:(b.name ^ "!greedy") greedy.Compilers.Driver.code
  in
  let chosen_sum =
    checksum_of
      ~key:(b.name ^ "!" ^ plan_signature chosen)
      chosen.Compilers.Driver.code
  in
  let g = prov.Plan.Driver.greedy_total_ns
  and s = prov.Plan.Driver.search_total_ns in
  let i = Option.value prov.Plan.Driver.ilp_total_ns ~default:s in
  let proved = Option.value prov.Plan.Driver.proved_optimal ~default:false in
  let lb = prov.Plan.Driver.certified_lb_ns in
  let chosen_ns = prov.Plan.Driver.chosen_total_ns in
  (* the never-worse chain: search is seeded with greedy, the ILP with
     the searched partitions, so an inversion anywhere is a planner
     bug *)
  let eps = Plan.Cost.eps in
  let chain_ok = i <= s +. eps && s <= g +. eps && chosen_ns <= g +. eps in
  {
    bench = b.name;
    machine = machine.Machine.name;
    procs;
    greedy_ns = g;
    search_ns = s;
    ilp_ns = i;
    chosen = prov.Plan.Driver.strategy;
    gap_pct = (if g > 0.0 then 100.0 *. (g -. s) /. g else 0.0);
    ilp_gap_pct = (if g > 0.0 then 100.0 *. (g -. i) /. g else 0.0);
    cert_gap_pct =
      Option.map
        (fun l ->
          if chosen_ns > 0.0 then
            Float.max 0.0 (100.0 *. (chosen_ns -. l) /. chosen_ns)
          else 0.0)
        lb;
    improved = i < g -. eps;
    fallback = prov.Plan.Driver.fallback;
    proved;
    certified_lb_ns = lb;
    states =
      List.fold_left
        (fun acc (r : Plan.Driver.block_report) ->
          acc + r.Plan.Driver.stats.Plan.Search.generated)
        0 prov.Plan.Driver.blocks;
    beam_rounds =
      List.fold_left
        (fun acc (r : Plan.Driver.block_report) ->
          acc + r.Plan.Driver.stats.Plan.Search.beam_rounds)
        0 prov.Plan.Driver.blocks;
    ilp_columns =
      List.fold_left
        (fun acc (r : Plan.Driver.ilp_report) ->
          acc + r.Plan.Driver.istats.Plan.Ilp.clusters)
        0 prov.Plan.Driver.ilp_blocks;
    ilp_nodes =
      List.fold_left
        (fun acc (r : Plan.Driver.ilp_report) ->
          acc + r.Plan.Driver.istats.Plan.Ilp.nodes)
        0 prov.Plan.Driver.ilp_blocks;
    checksum = chosen_sum;
    ok = chain_ok && String.equal greedy_sum chosen_sum;
  }

let section () =
  if not !Harness.json_mode then
    Harness.heading
      "Planner gap: branch-and-cut ILP and beam search vs greedy c2+f3 under \
       the unified cost model";
  let machines = if !Harness.tiny_mode then [ Machine.t3e ] else machines in
  let procs_list = if !Harness.tiny_mode then [ 16 ] else procs_list in
  (* one task per (benchmark, machine, procs) cell, fanned out over
     --jobs domains; the per-cell solvers stay sequential (jobs=1 in
     their cfgs) so the pool is never oversubscribed.  Pool.map keeps
     cell order — the committed baseline is independent of --jobs. *)
  let cells =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun m -> List.map (fun procs -> (b, m, procs)) procs_list)
          machines)
      Suite.all
  in
  let rows =
    Support.Pool.map ~domains:!Harness.jobs
      (fun (b, m, procs) -> measure b m procs)
      cells
  in
  if !Harness.json_mode then begin
    List.iter
      (fun r ->
        Harness.json_row
          [ ("section", Obs.Json.String "plan"); ("row", row_json r) ])
      rows;
    (* the committed baseline is always full-size: the --tiny smoke
       must not overwrite it *)
    if not !Harness.tiny_mode then begin
      let doc =
        Obs.Json.Obj
          [
            ("schema", Obs.Json.String "fuzion/bench-plan-gap/2");
            ("rows", Obs.Json.List (List.map row_json rows));
          ]
      in
      let oc = open_out "BENCH_plan_gap.json" in
      output_string oc (Format.asprintf "%a@." Obs.Json.pp doc);
      close_out oc;
      Printf.eprintf "wrote BENCH_plan_gap.json (%d rows)\n" (List.length rows)
    end
  end
  else begin
    Harness.row "%-8s %-12s %5s %14s %14s %14s %7s %7s %7s %6s %s\n" "bench"
      "machine" "procs" "greedy ns" "search ns" "ilp ns" "gap%" "cols"
      "chosen" "proved" "ok";
    List.iter
      (fun r ->
        Harness.row "%-8s %-12s %5d %14.0f %14.0f %14.0f %6.2f%% %7d %7s %6s %s\n"
          r.bench r.machine r.procs r.greedy_ns r.search_ns r.ilp_ns
          r.ilp_gap_pct r.ilp_columns r.chosen
          (if r.proved then "yes" else "no")
          (if r.ok then "ok" else "WORSE"))
      rows
  end;
  let bad = List.filter (fun r -> not r.ok) rows in
  if bad <> [] then begin
    List.iter
      (fun r ->
        Printf.eprintf
          "plan regression: %s on %s x%d (greedy %.0f ns, search %.0f ns, ilp \
           %.0f ns, chosen %s)\n"
          r.bench r.machine r.procs r.greedy_ns r.search_ns r.ilp_ns r.chosen)
      bad;
    exit 1
  end
