(* Shared measurement machinery for the figure benches.

   The computation side of a configuration (interpreter run + cache
   simulation) does not depend on the processor count — the evaluation
   scales total problem size with the machine, so the per-processor
   tile is constant (paper §5.4).  We therefore simulate the
   computation once per (benchmark, level, machine) and recost only the
   communication model per processor count. *)

let comm_ns (m : Machine.t) ~procs (c : Compilers.Driver.compiled) =
  (Comm.Model.analyze ~machine:m ~procs ~opts:Comm.Model.all_on c)
    .Comm.Model.effective_ns

(* Full modeled time of one configuration on p processors. *)
let measure_time m ~procs comp compiled =
  Comm.Perf.time_ns m comp ~comm_ns:(comm_ns m ~procs compiled)

let improvement_pct ~baseline t = 100.0 *. (baseline -. t) /. t

(* Compile, or die with a rendered diagnostic — the figures all work
   on programs that must compile, so an [Error] here is a harness bug,
   not a recoverable condition. *)
let compile ?may_fuse ?reduction_fusion ~level prog =
  match
    Compilers.Driver.(compile_opts (opts ?may_fuse ?reduction_fusion level))
      prog
  with
  | Ok c -> c
  | Error d ->
      Printf.eprintf "bench: %s\n" (Obs.Diagnostic.to_string d);
      exit 1

(* ------------------------------------------------------------------ *)
(* Output helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* With --json, the figures emit one JSON object per line on stdout
   (machine-readable rows) instead of the formatted tables. *)
let json_mode = ref false

(* With --tiny, sections that support it shrink the problem to
   CI-smoke size (seconds instead of minutes). *)
let tiny_mode = ref false

(* --jobs N: worker domains for the matrix sections (fig7-11, spmd,
   plan).  Rows are computed on a Support.Pool and printed
   sequentially in task order, so every section's output is
   byte-identical at any value. *)
let jobs = ref 1

let json_row fields = print_endline (Obs.Json.to_string (Obs.Json.Obj fields))

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let row fmt = Printf.printf fmt
