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

(* greedy c2+f3 and the searched configuration, each compiled end to
   end, plus the per-block search reports and partitions (the latter
   seed the ILP). *)
let greedy_and_search ~search ~cost prog =
  match Compilers.Driver.(compile_opts default_opts) prog with
  | Error d -> Error d
  | Ok greedy -> (
      let reports = ref [] in
      let partitions = ref [] in
      let searched =
        Compilers.Driver.(compile_custom_opts default_opts) prog
          ~partition:(fun ~block ~compiler ~user g ->
            let p, stats =
              Search.block search cost ~block ~candidates:(compiler @ user) g
            in
            reports := { block; stats } :: !reports;
            partitions := (block, p) :: !partitions;
            p)
      in
      match searched with
      | Error d -> Error d
      | Ok searched ->
          Ok
            ( greedy,
              searched,
              List.sort (fun a b -> compare a.block b.block) (List.rev !reports),
              !partitions ))

let compile ?(search = Search.default) ~cost prog =
  match greedy_and_search ~search ~cost prog with
  | Error d -> Error d
  | Ok (greedy, searched, reports, _) ->
      let g_ns = (Cost.compiled_cost cost greedy).Cost.total_ns in
      let s_ns = (Cost.compiled_cost cost searched).Cost.total_ns in
      (* the block search could not see reduction absorption; keep
         the searched plan only if it still prices no worse *)
      let fallback = s_ns > g_ns +. Cost.eps in
      if fallback then Obs.count "plan.fallback-greedy" 1;
      let chosen, strategy, chosen_ns =
        if fallback then (greedy, "greedy", g_ns) else (searched, "search", s_ns)
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
            ilp_total_ns = None;
            chosen_total_ns = chosen_ns;
            fallback;
            proved_optimal = None;
            certified_lb_ns = None;
            blocks = reports;
            ilp_blocks = [];
          } )

let compile_ilp ?(search = Search.default) ?(ilp = Ilp.default) ~cost prog =
  match greedy_and_search ~search ~cost prog with
  | Error d -> Error d
  | Ok (greedy, searched, reports, partitions) -> (
      let ilp_reports = ref [] in
      let solved =
        Compilers.Driver.(compile_custom_opts default_opts) prog
          ~partition:(fun ~block ~compiler ~user g ->
            let seeds =
              match List.assoc_opt block partitions with
              | Some p -> [ p ]
              | None -> []
            in
            let p, istats =
              Ilp.block ilp cost ~block ~candidates:(compiler @ user) ~seeds g
            in
            ilp_reports := { iblock = block; istats } :: !ilp_reports;
            p)
      in
      match solved with
      | Error d -> Error d
      | Ok solved ->
          let g_ns = (Cost.compiled_cost cost greedy).Cost.total_ns in
          let s_ns = (Cost.compiled_cost cost searched).Cost.total_ns in
          let i_ns = (Cost.compiled_cost cost solved).Cost.total_ns in
          (* rank on the full end-to-end model (reduction absorption
             included), preferring the stronger certificate on ties:
             the chosen plan is never worse than search or greedy *)
          let chosen, strategy, chosen_ns =
            if i_ns <= s_ns +. Cost.eps && i_ns <= g_ns +. Cost.eps then
              (solved, "ilp", i_ns)
            else if s_ns <= g_ns +. Cost.eps then (searched, "search", s_ns)
            else (greedy, "greedy", g_ns)
          in
          let fallback = strategy <> "ilp" in
          if fallback then Obs.count "plan.ilp.fallback" 1;
          let ilp_blocks =
            List.sort (fun a b -> compare a.iblock b.iblock)
              (List.rev !ilp_reports)
          in
          let proved_optimal =
            strategy = "ilp"
            && List.for_all
                 (fun r -> r.istats.Ilp.proved && r.istats.Ilp.objective_exact)
                 ilp_blocks
          in
          (* whole-program certified lower bound: the per-block LP
             bounds plus the plan-invariant reduction-tree term.
             Certifies the pure Definition-5 plan space (scalar
             contraction, no reduction absorption). *)
          let certified_lb_ns =
            let lbs =
              List.map (fun r -> r.istats.Ilp.lower_bound_ns) ilp_blocks
            in
            if List.for_all Option.is_some lbs then begin
              let block_lb =
                List.fold_left
                  (fun acc lb -> acc +. Option.get lb)
                  0.0 lbs
              in
              let plan = greedy.Compilers.Driver.plan in
              let block_sum =
                List.fold_left ( +. ) 0.0
                  (List.mapi
                     (fun bi bp ->
                       (Cost.block_cost cost ~block:bi bp).Cost.total_ns)
                     plan)
              in
              let red_ns =
                (Cost.plan_cost cost plan).Cost.total_ns -. block_sum
              in
              Some (block_lb +. red_ns)
            end
            else None
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
                ilp_total_ns = Some i_ns;
                chosen_total_ns = chosen_ns;
                fallback;
                proved_optimal = Some proved_optimal;
                certified_lb_ns;
                blocks = reports;
                ilp_blocks;
              } ))

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
