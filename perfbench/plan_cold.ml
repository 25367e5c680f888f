(* plan-cold: what the ILP planner costs when nothing is cached.

   One client, in-process.  Each request goes to a fresh
   Service.Engine (as many domains as the host has cores) and is a
   Plan{plan=ilp} for one benchmark; a sweep is one request for each of
   ep, frac, tomcatv and sp, in an order the seed fixes.  simple and
   fibro are left out: together they add about 45 s to a sweep on the
   host this load was sized on.  ep exceeds the planner's column cap
   and tomcatv is where the ILP beats the beam search.  Only plan=ilp
   is sent: it is the planner's strongest mode, and the one that stays.

   Checks, outside the timed interval: each reply's fingerprint, and
   its chosen plan priced no worse than the greedy c2+f3 plan under the
   same cost model (computed once, in set-up).  The summed chosen cost
   of a sweep is the model_ns metric: it is deterministic, and guards
   against planner speed bought with worse plans. *)

module Api = Service.Api

type config = { benches : string list; tile : int option }

let benches = [ "ep"; "frac"; "tomcatv"; "sp" ]

let request cfg name =
  Api.Plan
    {
      source = Api.Bench { name; tile = cfg.tile };
      opts = { Api.default_compile_opts with Api.plan = Api.Ilp };
      target = Api.default_target;
    }

let cost_cfg () =
  {
    Plan.Cost.machine =
      Result.get_ok (Api.machine_of_name Api.default_target.Api.machine);
    procs = Api.default_target.Api.procs;
    opts = Comm.Model.all_on;
  }

type reference = { fingerprint : string; greedy_ns : float }

let reference cfg name =
  let prog = Suite.load ?tile:cfg.tile name in
  let cost = Plan.Cost.create (cost_cfg ()) prog in
  let greedy =
    Compilers.Driver.compile_exn_opts Compilers.Driver.default_opts prog
  in
  {
    fingerprint = Ir.Prog.fingerprint prog;
    greedy_ns = (Plan.Cost.compiled_cost cost greedy).Plan.Cost.total_ns;
  }

let references cfg = List.map (fun b -> (b, reference cfg b)) cfg.benches

let order cfg ~seed =
  let a = Array.of_list cfg.benches in
  Serve_warm.shuffle (Random.State.make [| seed |]) a;
  Array.to_list a

(* The chosen plan's modelled cost, or why the reply is wrong. *)
let check (r : reference) name resp =
  let fail fmt = Printf.ksprintf (fun m -> Error (name ^ " plan: " ^ m)) fmt in
  match resp with
  | Api.Planned { summary; provenance = Some p } ->
      if summary.Api.fingerprint <> r.fingerprint then
        fail "fingerprint %s <> %s" summary.Api.fingerprint r.fingerprint
      else if p.Plan.Driver.chosen_total_ns > r.greedy_ns *. (1.0 +. 1e-9) then
        fail "chosen plan %.6g ns prices above greedy %.6g ns"
          p.Plan.Driver.chosen_total_ns r.greedy_ns
      else Ok p.Plan.Driver.chosen_total_ns
  | Api.Planned { provenance = None; _ } -> fail "no provenance"
  | Api.Failed d -> fail "%s" (Obs.Diagnostic.to_string d)
  | _ -> fail "unexpected reply"

(* One cold Plan request: a fresh engine, so nothing is cached. *)
let plan_once cfg name =
  let e = Service.Engine.create ~jobs:(Host.nproc ()) () in
  let req = request cfg name in
  let t0 = Obs.now_ns () in
  let resp = Service.Engine.handle e req in
  (resp, Stats.since t0)

(* One set-up: the references, timed. *)
let set_up cfg =
  let t0 = Obs.now_ns () in
  let refs = references cfg in
  (refs, Stats.since t0 /. 1e9)

(* Another sweep starts only if it is expected (at the mean sweep time
   so far) to end less than half a sweep past [seconds]; there is always
   at least one.  A run thus holds the number of sweeps nearest to
   [seconds] / sweep time: with a cut at [seconds] itself, a sweep time
   near half of [seconds] made some runs one sweep long and others two,
   and the first sweep of a process, slower than the rest, then weighed
   differently from run to run. *)
let more_sweeps ~t_end walls =
  match walls with
  | [] -> true
  | ws -> Obs.now_ns () +. (Stats.mean ws /. 2.0) <= t_end

let measure cfg ~seed ~seconds ~setup_reps =
  let refs, s0 = set_up cfg in
  let setups = ref [ s0 ] in
  let order = order cfg ~seed in
  let tally = Stats.tally () in
  let t_end = Obs.now_ns () +. (seconds *. 1e9) in
  let rec sweeps acc =
    if not (more_sweeps ~t_end (List.map (fun (w, _, _) -> w) acc)) then
      List.rev acc
    else begin
      let wall = ref 0.0 and model = ref 0.0 and ok = ref 0 in
      List.iter
        (fun name ->
          (* set-up repetitions between the requests: one set-up takes
             about 20 ms, and spreading them over the whole run keeps
             their median from depending on one moment of it *)
          for _ = 1 to 2 do
            setups := snd (set_up cfg) :: !setups
          done;
          let resp, ns = plan_once cfg name in
          wall := !wall +. ns;
          match check (List.assoc name refs) name resp with
          | Ok chosen ->
              Stats.record tally ~ok:true "";
              incr ok;
              model := !model +. chosen
          | Error m -> Stats.record tally ~ok:false m)
        order;
      sweeps ((!wall, !model, !ok) :: acc)
    end
  in
  let all = sweeps [] in
  while List.length !setups < setup_reps do
    setups := snd (set_up cfg) :: !setups
  done;
  let setup_times = !setups in
  let complete =
    List.filter (fun (_, _, ok) -> ok = List.length order) all
  in
  match complete with
  | [] ->
      Stats.record tally ~ok:false "no sweep completed without a failure";
      { Report.tally; metrics = []; detail = [] }
  | (_, model0, _) :: _ ->
      List.iter
        (fun (_, model, _) ->
          Stats.record tally ~ok:(model = model0)
            (Printf.sprintf "plan cost drifted between sweeps: %h <> %h" model
               model0))
        complete;
      let walls_ms = List.map (fun (w, _, _) -> Stats.ms_of_ns w) complete in
      let s = Stats.summarize walls_ms in
      {
        Report.tally;
        metrics =
          [
            Report.setup_metric setup_times;
          ]
          @ Report.latency ~what:"plan_sweep" s
          @ [
            Report.metric "model_ns" "model-ns" model0
              ~note:"plan_model_ns: sum of chosen_total_ns over one sweep";
          ];
        detail =
          [
            ("sweep_ms", Report.summary_json s);
            ("order", Obs.Json.List (List.map (fun b -> Obs.Json.String b) order));
            ("setup_s", Obs.Json.List (List.map (fun x -> Obs.Json.Float x) setup_times));
          ];
      }

(* ------------------------------------------------------------------ *)
(* Traced: the ILP pipeline rebuilt from its public pieces             *)
(* ------------------------------------------------------------------ *)

type parts = {
  mutable cost_create : float;
  mutable greedy_compile : float;
  mutable search : float;
  mutable search_generated : int;
  mutable ilp : float;
  mutable ilp_columns : int;
  mutable ilp_nodes : int;
  mutable ilp_pivots : int;
  mutable ilp_capped : int;
  mutable ilp_proved : int;
  mutable rebuilt : float;  (** wall of the whole rebuilt pipeline *)
}

let zero_parts () =
  {
    cost_create = 0.0;
    greedy_compile = 0.0;
    search = 0.0;
    search_generated = 0;
    ilp = 0.0;
    ilp_columns = 0;
    ilp_nodes = 0;
    ilp_pivots = 0;
    ilp_capped = 0;
    ilp_proved = 0;
    rebuilt = 0.0;
  }

(* What Plan.Driver.compile_ilp does, with each planner layer timed:
   the cost model, the greedy compile, Plan.Search.block over every
   block, then Plan.Ilp.block seeded with the searched partitions, and
   the final pricing of the three plans. *)
let decompose cfg (p : parts) name =
  let jobs = Host.nproc () in
  let time f =
    let t0 = Obs.now_ns () in
    let v = f () in
    (v, Stats.since t0)
  in
  let t_all = Obs.now_ns () in
  let prog = Suite.load ?tile:cfg.tile name in
  let cost, ns = time (fun () -> Plan.Cost.create (cost_cfg ()) prog) in
  p.cost_create <- p.cost_create +. ns;
  let greedy, ns =
    time (fun () ->
        Compilers.Driver.compile_opts Compilers.Driver.default_opts prog)
  in
  p.greedy_compile <- p.greedy_compile +. ns;
  let search = { Plan.Search.default with Plan.Search.jobs } in
  let partitions = ref [] in
  let searched =
    Compilers.Driver.compile_custom_opts Compilers.Driver.default_opts prog
      ~partition:(fun ~block ~compiler ~user g ->
        let (part, st), ns =
          time (fun () ->
              Plan.Search.block search cost ~block ~candidates:(compiler @ user) g)
        in
        p.search <- p.search +. ns;
        p.search_generated <- p.search_generated + st.Plan.Search.generated;
        partitions := (block, part) :: !partitions;
        part)
  in
  let ilp = { Plan.Ilp.default with Plan.Ilp.jobs } in
  let solved =
    Compilers.Driver.compile_custom_opts Compilers.Driver.default_opts prog
      ~partition:(fun ~block ~compiler ~user g ->
        let seeds = Option.to_list (List.assoc_opt block !partitions) in
        let (part, st), ns =
          time (fun () ->
              Plan.Ilp.block ilp cost ~block ~candidates:(compiler @ user) ~seeds g)
        in
        p.ilp <- p.ilp +. ns;
        p.ilp_columns <- p.ilp_columns + st.Plan.Ilp.clusters;
        p.ilp_nodes <- p.ilp_nodes + st.Plan.Ilp.nodes;
        p.ilp_pivots <- p.ilp_pivots + st.Plan.Ilp.pivots;
        if not st.Plan.Ilp.complete then p.ilp_capped <- p.ilp_capped + 1;
        if st.Plan.Ilp.proved then p.ilp_proved <- p.ilp_proved + 1;
        part)
  in
  let priced =
    match (greedy, searched, solved) with
    | Ok g, Ok s, Ok i ->
        Ok
          (List.map
             (fun c -> (Plan.Cost.compiled_cost cost c).Plan.Cost.total_ns)
             [ g; s; i ])
    | Error d, _, _ | _, Error d, _ | _, _, Error d -> Error d
  in
  p.rebuilt <- p.rebuilt +. Stats.since t_all;
  priced

let layers cfg ~seed ~seconds =
  let refs = references cfg in
  let order = order cfg ~seed in
  let tally = Stats.tally () in
  let handles = Hashtbl.create 8 in
  let sweeps = ref [] in
  let t_end = Obs.now_ns () +. (seconds *. 1e9) in
  let started = ref [] in
  while more_sweeps ~t_end !started do
    let t0 = Obs.now_ns () in
    let p = zero_parts () in
    let handled = ref 0.0 in
    List.iter
      (fun name ->
        let resp, ns = plan_once cfg name in
        handled := !handled +. ns;
        Hashtbl.replace handles name
          (ns :: Option.value ~default:[] (Hashtbl.find_opt handles name));
        let chosen = check (List.assoc name refs) name resp in
        Stats.record tally ~ok:(Result.is_ok chosen)
          (match chosen with Error m -> m | Ok _ -> "");
        match decompose cfg p name with
        | Ok [ g; _; i ] ->
            Stats.record tally ~ok:(i <= g *. (1.0 +. 1e-9))
              (name ^ " rebuilt: ILP plan prices above greedy")
        | Ok _ -> ()
        | Error d ->
            Stats.record tally ~ok:false
              (name ^ " rebuilt: " ^ Obs.Diagnostic.to_string d))
      order;
    sweeps := (p, !handled) :: !sweeps;
    started := Stats.since t0 :: !started
  done;
  let med f = Stats.median (List.map f !sweeps) in
  let ms f = Stats.ms_of_ns (med f) in
  let cnt f = med (fun (p, _) -> float_of_int (f p)) in
  let m = Report.metric in
  ( tally,
    List.map
      (fun name ->
        m ("plan.handle_s." ^ name) "s"
          (Stats.median (Hashtbl.find handles name) /. 1e9))
      cfg.benches
    @ [
        m "plan.cost_create_ms" "ms" (ms (fun (p, _) -> p.cost_create));
        m "plan.greedy_compile_ms" "ms" (ms (fun (p, _) -> p.greedy_compile));
        m "plan.search_ms" "ms" (ms (fun (p, _) -> p.search));
        m "plan.search_generated" "count" (cnt (fun p -> p.search_generated));
        m "plan.ilp_ms" "ms" (ms (fun (p, _) -> p.ilp));
        m "plan.ilp_columns" "count" (cnt (fun p -> p.ilp_columns));
        m "plan.ilp_nodes" "count" (cnt (fun p -> p.ilp_nodes));
        m "plan.ilp_pivots" "count" (cnt (fun p -> p.ilp_pivots));
        m "plan.ilp_capped_blocks" "count" (cnt (fun p -> p.ilp_capped));
        m "plan.ilp_proved_blocks" "count" (cnt (fun p -> p.ilp_proved));
        m "plan.coverage" "ratio"
          (med (fun (p, handled) -> p.rebuilt /. handled))
          ~note:"rebuilt pipeline wall / Engine.handle wall";
      ] )
