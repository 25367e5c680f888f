(* A seeded fuzz campaign: the one sweep loop shared by [zapc --fuzz]
   and the determinism tests.

   Per-case PRNG streams are split off the campaign seed sequentially
   *before* any task runs, so case [i] sees the same stream whether
   the campaign runs on 1 domain or 8; the pool returns reports in
   case order.  A campaign is therefore a pure function of
   (cfg, gen, trace, n, seed) — byte-identical output at any [jobs].

   If the calling domain has an [Obs] recorder installed, each case
   runs under its own child recorder (recorders are domain-local and
   must not be shared across pool workers) and the child reports are
   merged back in case order — deterministic counters regardless of
   domain scheduling. *)

type case = {
  index : int;  (** 1-based case number *)
  program : Ir.Prog.t;
  report : Oracle.report;
}

let run ?(cfg = Oracle.default) ?(gen = Gen.default) ?(trace = false)
    ?(jobs = 1) ~n ~seed () =
  let rng = Support.Prng.create seed in
  let tasks = List.init n (fun i -> (i + 1, Support.Prng.split rng)) in
  let parent = Obs.active () in
  let results =
    Support.Pool.map ~domains:jobs
      (fun (index, rng) ->
        let exec () =
          let program =
            if trace then Gen.generate_trace rng
            else Gen.generate ~cfg:gen rng
          in
          let report = Oracle.run ~cfg program in
          { index; program; report }
        in
        match parent with
        | None -> (exec (), None)
        | Some _ ->
            let r = Obs.create () in
            let case = Obs.run r exec in
            (case, Some (Obs.report r)))
      tasks
  in
  (match parent with
  | Some p ->
      List.iter
        (function _, Some child -> Obs.merge p child | _, None -> ())
        results
  | None -> ());
  List.map fst results

let divergent cases =
  List.filter (fun c -> not (Oracle.ok c.report)) cases

let skipped_runs cases =
  List.fold_left
    (fun acc c -> acc + List.length (Oracle.skips c.report))
    0 cases
