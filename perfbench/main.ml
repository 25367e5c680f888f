(* perfbench: the repository benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1

   runs one workload (plan-cold or lazy-stream) from the
   root of a source checkout and prints a report, then, as the last line
   of standard output, one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

   --trace 0 measures the end-to-end metrics of the named workload, with
   nothing but the benchmark's own clock reads around the calls.
   --trace 1 gives the per-layer breakdown of three pipelines (the two
   workloads' and the zapd path of Serve_warm), timed from outside by
   wrapping the calls into each layer; the named workload's pipeline
   gets what is left of the --seconds budget after one short pass of the
   other two.  The set of per-layer metrics is the same whichever
   workload is named.

   Every time comes from the monotonic clock (Obs.now_ns).  A failed
   operation or correctness check counts in "failed" and makes the exit
   code 1; a usage or environment error exits 2 without a result. *)

open Perfbench

let workloads = [ "plan-cold"; "lazy-stream" ]

(* Set-up is repeated at least this many times in an untraced run and
   reported as its median. *)
let setup_reps = 9

let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* Files a run writes (socket, native artifacts, the result record) go
   here; relative, because a Unix socket path must stay short. *)
let workdir = Filename.concat "perfbench" "_run"

let zapd = Filename.concat "_build" (Filename.concat "default" "bin/zapd.exe")

let serve_cfg =
  { Serve_warm.zapd; workdir; benches = Suite.all; tile = None }

let plan_cfg = { Plan_cold.benches = Plan_cold.benches; tile = None }

let end_to_end ~workload ~seed ~seconds =
  match workload with
  | "plan-cold" -> Plan_cold.measure plan_cfg ~seed ~seconds ~setup_reps
  | _ -> Lazy_stream.measure Lazy_stream.default ~seed ~seconds ~setup_reps

(* The two pipelines not named run first, one short pass each; the named
   one then gets what is left of [seconds] (at least its short pass), so
   a traced run takes about [seconds] or the three short passes,
   whichever is longer. *)
let per_layer ~workload ~seed ~seconds =
  let t_end = Obs.now_ns () +. (seconds *. 1e9) in
  let budget w =
    if w = workload then Float.max 0.0 ((t_end -. Obs.now_ns ()) /. 1e9) else 0.0
  in
  let zapd_path () =
    Serve_warm.layers serve_cfg ~refs:(Serve_warm.references serve_cfg) ~seed
      ~seconds:0.0 ~min_rounds:4
  in
  let plan () = Plan_cold.layers plan_cfg ~seed ~seconds:(budget "plan-cold") in
  let lz () =
    Lazy_stream.layers Lazy_stream.default ~seed
      ~seconds:(budget "lazy-stream") ~min_rounds:5
  in
  let probes = [ ("zapd", zapd_path); ("plan-cold", plan); ("lazy-stream", lz) ] in
  let named, others = List.partition (fun (w, _) -> w = workload) probes in
  let results = List.map (fun (w, f) -> (w, f ())) (others @ named) in
  let tally = Stats.tally () in
  List.iter (fun (_, (t, _)) -> Stats.merge_into tally t) results;
  {
    Report.tally;
    metrics = List.concat_map (fun (w, _) -> snd (List.assoc w results)) probes;
    detail = [];
  }

let result_json (r : Report.t) =
  let open Obs.Json in
  Obj
    [
      ("correct", Bool (r.Report.tally.Stats.failed = 0));
      ("attempted", Int r.Report.tally.Stats.attempted);
      ("failed", Int r.Report.tally.Stats.failed);
      ( "metrics",
        Obj
          (List.map
             (fun (m : Report.metric) ->
               ( m.Report.name,
                 Obj [ ("value", Float m.Report.value); ("unit", String m.Report.unit) ] ))
             r.Report.metrics) );
    ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long one run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> die "unexpected argument %S (usage: %s)" a usage)
    usage;
  if not (List.mem !workload workloads) then
    die "unknown workload %S (have: %s)" !workload (String.concat ", " workloads);
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced = !trace = 1 in
  if traced && not (Sys.file_exists zapd) then
    die "no zapd executable at %s (run from the checkout root)" zapd;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  at_exit Proc_guard.reap_all;
  mkdir_p workdir;
  let provenance = Host.provenance ~workload:!workload ~seed:!seed ~trace:traced in
  let seconds = float_of_int !seconds in
  let r =
    if traced then
      per_layer ~workload:!workload ~seed:!seed ~seconds
    else end_to_end ~workload:!workload ~seed:!seed ~seconds
  in
  Printf.printf "perfbench %s seed=%d trace=%d\n" !workload !seed !trace;
  Printf.printf "provenance %s\n" (Obs.Json.to_string provenance);
  List.iter
    (fun (m : Report.metric) ->
      Printf.printf "  %-26s %16.6g %-9s %s\n" m.Report.name m.Report.value
        m.Report.unit m.Report.note)
    r.Report.metrics;
  List.iter (Printf.printf "  FAILED: %s\n") (List.rev r.Report.tally.Stats.failures);
  let result = result_json r in
  let record =
    Obs.Json.Obj
      ([ ("provenance", provenance); ("result", result) ] @ r.Report.detail)
  in
  Out_channel.with_open_text
    (Filename.concat workdir
       (Printf.sprintf "result-%s-trace%d.json" !workload !trace))
    (fun oc -> output_string oc (Obs.Json.to_string record ^ "\n"));
  print_endline (Obs.Json.to_string result);
  exit (if r.Report.tally.Stats.failed = 0 then 0 else 1)
