(* What one workload run hands back to the command line: the operation
   tally, the named metrics, and free-form detail (sample counts, the
   percentile a tail figure is) that goes into the result file. *)

type metric = {
  name : string;
  value : float;
  unit : string;
  note : string;  (** how the figure was obtained, for the printed report *)
}

let metric ?(note = "") name unit value = { name; value; unit; note }

type t = {
  tally : Stats.tally;
  metrics : metric list;
  detail : (string * Obs.Json.t) list;
}

(* The bounded latency metrics of a workload: the mean and the tail
   percentile.  The median is printed beside them (as [<what>_p50_ms])
   but not bounded: on the 2-core host the benchmark was sized on, the
   speed of this code changes in phases lasting seconds, so the latency
   of one operation kind is bimodal; the median of such a mixture jumps
   between the modes from run to run, while the mean moves only with
   the share of time spent in each. *)
let latency ~what (s : Stats.summary) =
  [
    metric "mean_ms" "ms" s.Stats.mean
      ~note:
        (Printf.sprintf "%s latency, mean of n=%d; %s_p50_ms = %.6g ms" what
           s.Stats.n what s.Stats.p50);
    metric "tail_ms" "ms" s.Stats.tail
      ~note:
        (Printf.sprintf "%s_p95_ms: p%d of n=%d" what s.Stats.tail_pct
           s.Stats.n);
  ]

let summary_json (s : Stats.summary) =
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int s.Stats.n);
      ("mean", Obs.Json.Float s.Stats.mean);
      ("p50", Obs.Json.Float s.Stats.p50);
      ("tail", Obs.Json.Float s.Stats.tail);
      ("tail_percentile", Obs.Json.Int s.Stats.tail_pct);
    ]

(* Timing of a set-up step repeated [reps] times: the median, so one
   slow repetition does not move the figure. *)
let setup_metric times_s =
  metric "setup_s" "s" (Stats.median times_s)
    ~note:(Printf.sprintf "median of %d set-ups" (List.length times_s))
