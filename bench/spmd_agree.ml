(* SPMD agreement: execute every benchmark on the simulated processor
   grid and hold the executed run against the analytical model.

   For each (benchmark, level, procs) configuration the engine's
   charged traffic must equal Comm.Model.analyze exactly and the
   distributed checksum must equal the sequential interpreter's; any
   disagreement fails the bench (exit 1).  The wire-level counts
   (actual sender→receiver pairs, clipped payloads) ride along for
   inspection — they legitimately differ from the charged ones, see
   docs/spmd.md.

   With --json the section also writes BENCH_spmd_agreement.json to
   the current directory: the committed baseline of executed vs
   predicted traffic.  The output is deterministic, so a re-run diffs
   clean when nothing changed. *)

let machine = Machine.t3e

let levels = Compilers.Driver.[ Baseline; F1; C1; F2; F3; C2; C2F3 ]

let procs_list = [ 4; 16 ]

let tile_of (b : Suite.bench) =
  if !Harness.tiny_mode then Some (if b.rank = 1 then 256 else 16) else None

type rowr = {
  bench : string;
  level : string;
  procs : int;
  agree : bool;
  seq_sum : string;
  spmd_sum : string;
  predicted_messages : int;
  predicted_bytes : int;
  predicted_effective_ns : float;
  charged_messages : int;
  charged_bytes : int;
  wire_messages : int;
  wire_bytes : int;
  executed_comm_ns : float;
  time_ns : float;
  unmodeled : int;
}

let row_json r =
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String r.bench);
      ("level", Obs.Json.String r.level);
      ("procs", Obs.Json.Int r.procs);
      ("agree", Obs.Json.Bool r.agree);
      ("checksum", Obs.Json.String r.spmd_sum);
      ( "predicted",
        Obs.Json.Obj
          [
            ("messages", Obs.Json.Int r.predicted_messages);
            ("bytes", Obs.Json.Int r.predicted_bytes);
            ("effective_ns", Obs.Json.Float r.predicted_effective_ns);
          ] );
      ( "executed",
        Obs.Json.Obj
          [
            ("messages", Obs.Json.Int r.charged_messages);
            ("bytes", Obs.Json.Int r.charged_bytes);
            ("wire_messages", Obs.Json.Int r.wire_messages);
            ("wire_bytes", Obs.Json.Int r.wire_bytes);
            ("comm_ns", Obs.Json.Float r.executed_comm_ns);
            ("time_ns", Obs.Json.Float r.time_ns);
            ("unmodeled_exchanges", Obs.Json.Int r.unmodeled);
          ] );
    ]

let measure (b : Suite.bench) level procs =
  let prog = Suite.program ?tile:(tile_of b) b in
  let c = Harness.compile ~level prog in
  let seq_sum = Exec.Interp.checksum (Exec.Interp.run c.Compilers.Driver.code) in
  let a = Comm.Model.analyze ~machine ~procs ~opts:Comm.Model.all_on c in
  let { Spmd.report = r; per_proc } =
    Spmd.execute { Spmd.machine; procs; opts = Comm.Model.all_on; cachesim = false } c
  in
  let comm_ns =
    Array.fold_left
      (fun acc (p : Spmd.proc_counters) -> max acc p.comm_ns)
      0.0 per_proc
  in
  {
    bench = b.name;
    level = Compilers.Driver.level_name level;
    procs;
    agree =
      String.equal r.Spmd.checksum seq_sum
      && r.Spmd.charged_messages = a.Comm.Model.messages
      && r.Spmd.charged_bytes = a.Comm.Model.bytes
      && r.Spmd.unmodeled_exchanges = 0;
    seq_sum;
    spmd_sum = r.Spmd.checksum;
    predicted_messages = a.Comm.Model.messages;
    predicted_bytes = a.Comm.Model.bytes;
    predicted_effective_ns = a.Comm.Model.effective_ns;
    charged_messages = r.Spmd.charged_messages;
    charged_bytes = r.Spmd.charged_bytes;
    wire_messages = r.Spmd.wire_messages;
    wire_bytes = r.Spmd.wire_bytes;
    executed_comm_ns = comm_ns;
    time_ns = r.Spmd.time_ns;
    unmodeled = r.Spmd.unmodeled_exchanges;
  }

let section () =
  if not !Harness.json_mode then
    Harness.heading
      "SPMD agreement: executed grid run vs analytical model (Cray T3E)";
  (* one task per (benchmark, level, procs) cell; Pool.map keeps cell
     order, so rows (and the committed baseline) are independent of
     --jobs *)
  let cells =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun level -> List.map (fun procs -> (b, level, procs)) procs_list)
          levels)
      Suite.all
  in
  let rows =
    Support.Pool.map ~domains:!Harness.jobs
      (fun (b, level, procs) -> measure b level procs)
      cells
  in
  if !Harness.json_mode then begin
    List.iter
      (fun r -> Harness.json_row [ ("section", Obs.Json.String "spmd"); ("row", row_json r) ])
      rows;
    (* the committed baseline is always full-size: the --tiny smoke
       must not overwrite it *)
    if not !Harness.tiny_mode then begin
      let doc =
        Obs.Json.Obj
          [
            ("schema", Obs.Json.String "fuzion/bench-spmd-agreement/1");
            ("machine", Obs.Json.String machine.Machine.name);
            ("rows", Obs.Json.List (List.map row_json rows));
          ]
      in
      let oc = open_out "BENCH_spmd_agreement.json" in
      output_string oc (Format.asprintf "%a@." Obs.Json.pp doc);
      close_out oc;
      Printf.eprintf "wrote BENCH_spmd_agreement.json (%d rows)\n"
        (List.length rows)
    end
  end
  else begin
    Harness.row "%-8s %-9s %5s %9s %9s %10s %10s %6s %s\n" "bench" "level"
      "procs" "msgs p/e" "bytes p/e" "wire m/B" "comm ns" "unmod" "ok";
    List.iter
      (fun r ->
        Harness.row "%-8s %-9s %5d %4d/%-4d %4d/%-4d %5d/%-6d %10.0f %6d %s\n"
          r.bench r.level r.procs r.predicted_messages r.charged_messages
          r.predicted_bytes r.charged_bytes r.wire_messages r.wire_bytes
          r.executed_comm_ns r.unmodeled
          (if r.agree then "ok" else "DISAGREES"))
      rows
  end;
  let bad = List.filter (fun r -> not r.agree) rows in
  if bad <> [] then begin
    List.iter
      (fun r ->
        Printf.eprintf
          "spmd disagreement: %s @ %s x%d (checksum %s/%s, messages %d/%d, \
           bytes %d/%d, unmodeled %d)\n"
          r.bench r.level r.procs r.seq_sum r.spmd_sum r.predicted_messages
          r.charged_messages r.predicted_bytes r.charged_bytes r.unmodeled)
      bad;
    exit 1
  end
