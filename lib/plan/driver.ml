type block_report = {
  block : int;
  stats : Search.stats;
}

type ilp_report = {
  iblock : int;
  istats : Ilp.stats;
}

type provenance = {
  strategy : string;
  machine : string;
  procs : int;
  greedy_total_ns : float;
  search_total_ns : float;
  ilp_total_ns : float option;
  chosen_total_ns : float;
  fallback : bool;
  proved_optimal : bool option;
  certified_lb_ns : float option;
  blocks : block_report list;
  ilp_blocks : ilp_report list;
}

(* One compile whose blocks [partition] plans, and its per-block
   (block, partition, report) triples in block order. *)
let per_block ~partition prog =
  let reports = ref [] in
  Compilers.Driver.(compile_custom_opts default_opts) prog
    ~partition:(fun ~block ~compiler ~user g ->
      let p, report = partition ~block ~candidates:(compiler @ user) g in
      reports := (block, p, report) :: !reports;
      p)
  |> Result.map (fun c ->
         (c, List.sort (fun (a, _, _) (b, _, _) -> compare a b) !reports))

(* The one pipeline: greedy c2+f3, the search and, given [ilp], the
   branch-and-cut seeded with the searched partitions.  Each plan is
   compiled end to end, so reduction absorption (which the block
   planners cannot see) is priced too; the strongest plan within
   Cost.eps of every weaker one is returned. *)
let plan ~search ?ilp ~cost prog =
  let ( let* ) = Result.bind in
  let* greedy = Compilers.Driver.(compile_opts default_opts) prog in
  let* searched, searches =
    per_block prog ~partition:(Search.block search cost)
  in
  let* solved =
    match ilp with
    | None -> Ok None
    | Some ilp ->
        let seeds block =
          List.filter_map
            (fun (b, p, _) -> if b = block then Some p else None)
            searches
        in
        per_block prog ~partition:(fun ~block ~candidates g ->
            Ilp.block ilp cost ~block ~candidates ~seeds:(seeds block) g)
        |> Result.map Option.some
  in
  let ns c = (Cost.compiled_cost cost c).Cost.total_ns in
  let g_ns = ns greedy in
  let s_ns = ns searched in
  let solved =
    Option.map
      (fun (c, solves) ->
        ( c,
          ns c,
          List.map (fun (iblock, _, istats) -> { iblock; istats }) solves ))
      solved
  in
  (* strongest first *)
  let finalists =
    (match solved with Some (c, i_ns, _) -> [ (c, "ilp", i_ns) ] | None -> [])
    @ [ (searched, "search", s_ns); (greedy, "greedy", g_ns) ]
  in
  let rec pick = function
    | ((_, _, x) as f) :: weaker
      when List.for_all (fun (_, _, y) -> x <= y +. Cost.eps) weaker ->
        f
    | _ :: weaker -> pick weaker
    | [] -> assert false
  in
  let chosen, strategy, chosen_ns = pick finalists in
  let _, strongest, _ = List.hd finalists in
  let fallback = strategy <> strongest in
  if fallback then
    Obs.count
      (if Option.is_some solved then "plan.ilp.fallback"
       else "plan.fallback-greedy")
      1;
  (* whole-program certified lower bound: the per-block LP bounds plus
     the plan-invariant reduction-tree term.  Certifies the pure
     Definition-5 plan space (scalar contraction, no reduction
     absorption). *)
  let certified_lb ilp_blocks =
    let lbs = List.map (fun r -> r.istats.Ilp.lower_bound_ns) ilp_blocks in
    if List.for_all Option.is_some lbs then begin
      let block_lb =
        List.fold_left (fun acc lb -> acc +. Option.get lb) 0.0 lbs
      in
      let plan = greedy.Compilers.Driver.plan in
      let block_sum =
        List.fold_left ( +. ) 0.0
          (List.mapi
             (fun bi bp -> (Cost.block_cost cost ~block:bi bp).Cost.total_ns)
             plan)
      in
      let red_ns = (Cost.plan_cost cost plan).Cost.total_ns -. block_sum in
      Some (block_lb +. red_ns)
    end
    else None
  in
  let ilp_total_ns, proved_optimal, certified_lb_ns, ilp_blocks =
    match solved with
    | None -> (None, None, None, [])
    | Some (_, i_ns, ilp_blocks) ->
        ( Some i_ns,
          Some
            (strategy = "ilp"
            && List.for_all
                 (fun r -> r.istats.Ilp.proved && r.istats.Ilp.objective_exact)
                 ilp_blocks),
          certified_lb ilp_blocks,
          ilp_blocks )
  in
  let c = Cost.cfg cost in
  Ok
    ( chosen,
      {
        strategy;
        machine = c.Cost.machine.Machine.name;
        procs = c.Cost.procs;
        greedy_total_ns = g_ns;
        search_total_ns = s_ns;
        ilp_total_ns;
        chosen_total_ns = chosen_ns;
        fallback;
        proved_optimal;
        certified_lb_ns;
        blocks = List.map (fun (block, _, stats) -> { block; stats }) searches;
        ilp_blocks;
      } )

let compile ?(search = Search.default) ~cost prog = plan ~search ~cost prog

let compile_ilp ?(search = Search.default) ?(ilp = Ilp.default) ~cost prog =
  plan ~search ~ilp ~cost prog

(* The ILP members are written, nulls allowed, exactly when the ILP ran
   (ilp_total_ns is Some).  Absent or null, they decode to None. *)
let provenance_codec =
  let open Obs.Codec in
  let ilp_only name c get =
    field name (nullable c) get ~default:None ~omit:(fun p ->
        p.ilp_total_ns = None)
  in
  (* the members a search block report and an ILP one share *)
  let number get = field "block" int get in
  let outcome =
    record (fun g b i -> (g, b, i))
    |+ field "greedy_ns" float (fun (g, _, _) -> g)
    |+ field "best_ns" float (fun (_, b, _) -> b)
    |+ field "improved" bool (fun (_, _, i) -> i)
  in
  let block =
    obj
      (record
         (fun block expanded generated pruned deduped beam_rounds
              (greedy_ns, best_ns, improved) ->
           { block; stats = { Search.expanded; generated; pruned; deduped;
                              beam_rounds; greedy_ns; best_ns; improved } })
      |+ number (fun r -> r.block)
      |+ field "expanded" int (fun r -> r.stats.Search.expanded)
      |+ field "generated" int (fun r -> r.stats.Search.generated)
      |+ field "pruned" int (fun r -> r.stats.Search.pruned)
      |+ field "deduped" int (fun r -> r.stats.Search.deduped)
      |+ field "beam_rounds" int (fun r -> r.stats.Search.beam_rounds)
      |+ spread outcome (fun { stats = s; _ } ->
             (s.Search.greedy_ns, s.best_ns, s.improved)))
  in
  let ilp_block =
    obj
      (record
         (fun iblock clusters complete nodes cuts pivots proved objective_exact
              lower_bound_ns (greedy_ns, best_ns, improved) ->
           { iblock; istats = { Ilp.clusters; complete; nodes; cuts; pivots;
                                proved; objective_exact; lower_bound_ns;
                                greedy_ns; best_ns; improved } })
      |+ number (fun r -> r.iblock)
      |+ field "clusters" int (fun r -> r.istats.Ilp.clusters)
      |+ field "complete" bool (fun r -> r.istats.Ilp.complete)
      |+ field "nodes" int (fun r -> r.istats.Ilp.nodes)
      |+ field "cuts" int (fun r -> r.istats.Ilp.cuts)
      |+ field "pivots" int (fun r -> r.istats.Ilp.pivots)
      |+ field "proved" bool (fun r -> r.istats.Ilp.proved)
      |+ field "objective_exact" bool (fun r -> r.istats.Ilp.objective_exact)
      |+ field "lower_bound_ns" (nullable float) (fun r ->
             r.istats.Ilp.lower_bound_ns)
      |+ spread outcome (fun { istats = s; _ } ->
             (s.Ilp.greedy_ns, s.best_ns, s.improved)))
  in
  obj
    (record
       (fun strategy machine procs greedy_total_ns search_total_ns
            chosen_total_ns fallback ilp_total_ns proved_optimal certified_lb_ns
            blocks ilp_blocks ->
         { strategy; machine; procs; greedy_total_ns; search_total_ns;
           ilp_total_ns; chosen_total_ns; fallback; proved_optimal;
           certified_lb_ns; blocks; ilp_blocks })
    |+ field "strategy" string (fun p -> p.strategy)
    |+ field "machine" string (fun p -> p.machine)
    |+ field "procs" int (fun p -> p.procs)
    |+ field "greedy_total_ns" float (fun p -> p.greedy_total_ns)
    |+ field "search_total_ns" float (fun p -> p.search_total_ns)
    |+ field "chosen_total_ns" float (fun p -> p.chosen_total_ns)
    |+ field "fallback" bool (fun p -> p.fallback)
    |+ ilp_only "ilp_total_ns" float (fun p -> p.ilp_total_ns)
    |+ ilp_only "proved_optimal" bool (fun p -> p.proved_optimal)
    |+ ilp_only "certified_lb_ns" float (fun p -> p.certified_lb_ns)
    |+ field "blocks" (list block) (fun p -> p.blocks)
    |+ field "ilp_blocks" (list ilp_block) (fun p -> p.ilp_blocks) ~default:[]
         ~omit:(fun p -> p.ilp_blocks = []))
