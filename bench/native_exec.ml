(* Native execution: the whole suite compiled to real machine code and
   executed, next to the cachesim model's predictions.

   For every (benchmark, plan mode) cell — the full greedy ladder plus
   the ILP planning pipeline — the plan's emitted C is built through
   the content-addressed artifact store (Native.Store) and executed;
   the row carries the measured wall-clock next to the modeled
   nanoseconds (t3e x1, the same unified cost model the planners
   optimize), and the native live-out checksum must equal the
   interpreter's bit for bit.

   Two properties are asserted, and their violation fails the bench
   (exit 1):
     - every native checksum equals the interpreter checksum;
     - a warm pass over every cell performs zero recompiles and
       reproduces the cold checksums exactly.

   The model predicts a 1998 machine and the runner executes on a
   modern one, so absolute times are incomparable by design; what the
   model owes us is *ordering*.  Per benchmark, the greedy ladder's
   rank agreement between predicted and measured time is reported as
   Kendall's tau (tau-a) with the raw inversion count.

   With --json the section also writes BENCH_native.json: the
   committed record of checksums, wall-clocks, rank agreement and
   toolchain provenance.  Wall-clock fields vary run to run; the
   checksum and agreement structure is the stable part.

   When no C compiler is on PATH the section skips with an explicit
   notice and exits cleanly — CI without a toolchain must not fail. *)

let model_machine = Machine.t3e

type mode = Greedy of Compilers.Driver.level | Ilp

let mode_name = function
  | Greedy l -> "greedy:" ^ Compilers.Driver.level_name l
  | Ilp -> "ilp"

let modes () =
  let levels =
    if !Harness.tiny_mode then Compilers.Driver.[ Baseline; C2F3 ]
    else Compilers.Driver.all_levels @ [ Compilers.Driver.C2P ]
  in
  List.map (fun l -> Greedy l) levels @ [ Ilp ]

let tile_of (b : Suite.bench) =
  if !Harness.tiny_mode then Some (if b.rank = 1 then 256 else 16) else None

let reps () = if !Harness.tiny_mode then 1 else 3

(* CI-smoke budgets, as in plan_gap *)
let search_cfg () =
  if !Harness.tiny_mode then
    { Plan.Search.default with Plan.Search.max_states = 600; beam_width = 2 }
  else Plan.Search.default

let ilp_cfg () =
  if !Harness.tiny_mode then
    { Plan.Ilp.default with Plan.Ilp.max_clusters = 400; max_pivots = 20_000 }
  else Plan.Ilp.default

let compile_mode prog = function
  | Greedy l -> Harness.compile ~level:l prog
  | Ilp -> (
      let cost =
        Plan.Cost.create
          { Plan.Cost.machine = model_machine; procs = 1; opts = Comm.Model.all_on }
          prog
      in
      match
        Plan.Driver.compile_ilp ~search:(search_cfg ()) ~ilp:(ilp_cfg ()) ~cost
          prog
      with
      | Ok (c, _) -> c
      | Error d ->
          Printf.eprintf "bench: %s\n" (Obs.Diagnostic.to_string d);
          exit 1)

type rowr = {
  bench : string;
  mode : string;
  predicted_ns : float;  (* modeled time on t3e x1 *)
  wall_ns : int64;  (* min over reps, CLOCK_MONOTONIC around clusters *)
  interp_checksum : string;
  native_checksum : string;
  agrees : bool;
  units : int;  (* fused clusters, one C function each *)
  key : string;  (* artifact content address *)
  built : bool;  (* this cell's cold pass actually compiled *)
}

let row_json r =
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String r.bench);
      ("mode", Obs.Json.String r.mode);
      ("predicted_ns", Obs.Json.Float r.predicted_ns);
      ("wall_ns", Obs.Json.Int (Int64.to_int r.wall_ns));
      ("interp_checksum", Obs.Json.String r.interp_checksum);
      ("native_checksum", Obs.Json.String r.native_checksum);
      ("agrees", Obs.Json.Bool r.agrees);
      ("units", Obs.Json.Int r.units);
      ("key", Obs.Json.String r.key);
      ("built", Obs.Json.Bool r.built);
    ]

(* ------------------------------------------------------------------ *)
(* Rank agreement                                                      *)
(* ------------------------------------------------------------------ *)

type agreement = {
  abench : string;
  pairs : int;
  concordant : int;
  inversions : int;  (* discordant pairs *)
  ties : int;
  tau : float;  (* Kendall tau-a: (C - D) / all pairs *)
}

(* Tau over the greedy ladder of one benchmark: does the model rank
   the levels the way the hardware does?  Ties in either ordering
   count as neither concordant nor discordant (tau-a denominator). *)
let agreement_of ~bench rows =
  let cells =
    List.filter_map
      (fun r ->
        if
          r.bench = bench
          && String.length r.mode >= 7
          && String.sub r.mode 0 7 = "greedy:"
        then Some (r.predicted_ns, Int64.to_float r.wall_ns)
        else None)
      rows
  in
  let arr = Array.of_list cells in
  let n = Array.length arr in
  let concordant = ref 0 and inversions = ref 0 and ties = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let pi, wi = arr.(i) and pj, wj = arr.(j) in
      let sp = compare pi pj and sw = compare wi wj in
      if sp = 0 || sw = 0 then incr ties
      else if sp * sw > 0 then incr concordant
      else incr inversions
    done
  done;
  let pairs = n * (n - 1) / 2 in
  {
    abench = bench;
    pairs;
    concordant = !concordant;
    inversions = !inversions;
    ties = !ties;
    tau =
      (if pairs = 0 then 1.0
       else float_of_int (!concordant - !inversions) /. float_of_int pairs);
  }

let agreement_json a =
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String a.abench);
      ("pairs", Obs.Json.Int a.pairs);
      ("concordant", Obs.Json.Int a.concordant);
      ("inversions", Obs.Json.Int a.inversions);
      ("ties", Obs.Json.Int a.ties);
      ("kendall_tau", Obs.Json.Float a.tau);
    ]

(* ------------------------------------------------------------------ *)
(* The section                                                         *)
(* ------------------------------------------------------------------ *)

let run_min runner ~reps =
  let rec go best sum n =
    if n = 0 then Ok (best, sum)
    else
      match Native.Build.run_exe runner with
      | Error e -> Error e
      | Ok r ->
          let w = r.Native.Build.wall_ns in
          let best =
            match best with
            | None -> Some (r.Native.Build.checksum, w)
            | Some (s, b) -> Some (s, if w < b then w else b)
          in
          go best (Int64.add sum w) (n - 1)
  in
  match go None 0L reps with
  | Ok (Some (checksum, best), _) -> Ok (checksum, best)
  | Ok (None, _) -> Error { Native.Build.argv = []; status = "-"; detail = "no reps" }
  | Error e -> Error e

let die e =
  Printf.eprintf "bench: native: %s\n" (Native.Build.error_to_string e);
  exit 1

let section () =
  if not !Harness.json_mode then
    Harness.heading
      "Native execution: suite x plan mode on real hardware vs the cachesim \
       model (t3e x1)";
  if not (Native.Toolchain.available ()) then begin
    (* explicit, machine-readable skip: CI without a toolchain is a
       configuration, not a failure *)
    if !Harness.json_mode then
      Harness.json_row
        [
          ("section", Obs.Json.String "native");
          ("skipped", Obs.Json.Bool true);
          ("reason", Obs.Json.String "no C compiler on PATH");
        ]
    else print_endline "skipped: no C compiler on PATH";
    ()
  end
  else begin
    let cells =
      List.concat_map (fun b -> List.map (fun m -> (b, m)) (modes ())) Suite.all
    in
    (* phase 1, on the pool: compile each cell and price it under the
       model (deterministic, embarrassingly parallel) *)
    let compiled =
      Support.Pool.map ~domains:!Harness.jobs
        (fun ((b : Suite.bench), m) ->
          let prog = Suite.program ?tile:(tile_of b) b in
          let c = compile_mode prog m in
          let comp = Comm.Perf.simulate model_machine c.Compilers.Driver.code in
          let predicted = Harness.measure_time model_machine ~procs:1 comp c in
          (b, m, c, comp.Comm.Perf.checksum, predicted))
        cells
    in
    (* phase 2, sequential: build through a private store (so "built"
       is deterministically true on the cold pass) and measure.
       Sequential keeps the wall-clocks honest — no co-running cc. *)
    let root = Native.Build.fresh_workdir ~salt:(Hashtbl.hash "bench-native") () in
    Fun.protect ~finally:(fun () -> Native.Build.remove_tree root)
    @@ fun () ->
    let store = Native.Store.create ~root () in
    let rows =
      List.map
        (fun ((b : Suite.bench), m, (c : Compilers.Driver.compiled), interp_sum, predicted) ->
          let code = c.Compilers.Driver.code in
          match Native.Store.get store code with
          | Error e -> die e
          | Ok (a, built) -> (
              match run_min a.Native.Store.runner ~reps:(reps ()) with
              | Error e -> die e
              | Ok (native_sum, wall) ->
                  {
                    bench = b.Suite.name;
                    mode = mode_name m;
                    predicted_ns = predicted;
                    wall_ns = wall;
                    interp_checksum = interp_sum;
                    native_checksum = native_sum;
                    agrees = String.equal interp_sum native_sum;
                    units = a.Native.Store.units;
                    key = a.Native.Store.key;
                    built;
                  }))
        compiled
    in
    (* phase 3: the warm pass.  Every artifact must come back without
       a compile, and a re-run must reproduce the cold checksum. *)
    let warm_recompiles = ref 0 and warm_mismatches = ref 0 in
    List.iter2
      (fun (_, _, (c : Compilers.Driver.compiled), _, _) row ->
        match Native.Store.get store c.Compilers.Driver.code with
        | Error e -> die e
        | Ok (a, fresh) -> (
            if fresh then incr warm_recompiles;
            match Native.Build.run_exe a.Native.Store.runner with
            | Error e -> die e
            | Ok r ->
                if not (String.equal r.Native.Build.checksum row.native_checksum)
                then incr warm_mismatches))
      compiled rows;
    let agreements = List.map (fun (b : Suite.bench) -> agreement_of ~bench:b.Suite.name rows) Suite.all in
    let stats = Native.Store.stats store in
    if !Harness.json_mode then begin
      List.iter
        (fun r ->
          Harness.json_row
            [ ("section", Obs.Json.String "native"); ("row", row_json r) ])
        rows;
      (* the committed baseline is always full-size: the --tiny smoke
         must not overwrite it *)
      if not !Harness.tiny_mode then begin
        let doc =
          Obs.Json.Obj
            [
              ("schema", Obs.Json.String "fuzion/bench-native/1");
              ("compiler", Obs.Json.String (Native.Toolchain.describe ()));
              ( "cc_argv",
                Obs.Json.List
                  (List.map
                     (fun s -> Obs.Json.String s)
                     (Native.Toolchain.cc_argv ())) );
              ("model_machine", Obs.Json.String model_machine.Machine.name);
              ("model_procs", Obs.Json.Int 1);
              ("reps", Obs.Json.Int (reps ()));
              ("rows", Obs.Json.List (List.map row_json rows));
              ( "rank_agreement",
                Obs.Json.List (List.map agreement_json agreements) );
              ( "warm",
                Obs.Json.Obj
                  [
                    ("recompiles", Obs.Json.Int !warm_recompiles);
                    ("mismatches", Obs.Json.Int !warm_mismatches);
                    ("store_builds", Obs.Json.Int stats.Native.Store.builds);
                    ("store_reuses", Obs.Json.Int stats.Native.Store.reuses);
                  ] );
            ]
        in
        let oc = open_out "BENCH_native.json" in
        output_string oc (Format.asprintf "%a@." Obs.Json.pp doc);
        close_out oc;
        Printf.eprintf "wrote BENCH_native.json (%d rows)\n" (List.length rows)
      end
    end
    else begin
      Printf.printf "toolchain: %s\n\n" (Native.Toolchain.describe ());
      Harness.row "%-8s %-16s %14s %14s %6s %6s %s\n" "bench" "mode"
        "predicted ns" "wall ns" "units" "built" "checksum";
      List.iter
        (fun r ->
          Harness.row "%-8s %-16s %14.0f %14Ld %6d %6s %s%s\n" r.bench r.mode
            r.predicted_ns r.wall_ns r.units
            (if r.built then "yes" else "no")
            r.native_checksum
            (if r.agrees then "" else "  DIVERGES"))
        rows;
      print_newline ();
      Harness.row "%-8s %8s %12s %12s %6s\n" "bench" "pairs" "inversions"
        "kendall-tau" "ties";
      List.iter
        (fun a ->
          Harness.row "%-8s %8d %12d %12.3f %6d\n" a.abench a.pairs a.inversions
            a.tau a.ties)
        agreements;
      Printf.printf
        "\nwarm pass: %d recompiles, %d checksum mismatches (store: %d builds, \
         %d reuses)\n"
        !warm_recompiles !warm_mismatches stats.Native.Store.builds
        stats.Native.Store.reuses
    end;
    let diverged = List.filter (fun r -> not r.agrees) rows in
    List.iter
      (fun r ->
        Printf.eprintf
          "native divergence: %s @ %s (interp %s, native %s)\n" r.bench r.mode
          r.interp_checksum r.native_checksum)
      diverged;
    if !warm_recompiles > 0 then
      Printf.eprintf "native: warm pass recompiled %d artifacts\n"
        !warm_recompiles;
    if !warm_mismatches > 0 then
      Printf.eprintf "native: warm pass diverged on %d artifacts\n"
        !warm_mismatches;
    if diverged <> [] || !warm_recompiles > 0 || !warm_mismatches > 0 then
      exit 1
  end
