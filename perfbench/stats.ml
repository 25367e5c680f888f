(* Sample statistics and operation accounting shared by every workload.

   Latencies are summarized by their mean and by nearest-rank
   percentiles printed with their sample counts: the median, and the
   highest percentile that still has at least ten samples beyond it (so
   a tail figure is never a single outlier).  The mean, not the median,
   is the bounded figure; Report.latency says why. *)

(* Nearest rank of percentile [p] (an integer in 1..100) among [n]
   samples: the smallest rank r with r >= p% of n, computed in integers
   so no float rounding can move it. *)
let rank ~n p =
  if n < 1 then invalid_arg "Stats.rank: no samples";
  if p < 1 || p > 100 then invalid_arg "Stats.rank: percentile out of range";
  max 1 (((p * n) + 99) / 100)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile xs p =
  let a = sorted xs in
  a.(rank ~n:(Array.length a) p - 1)

let median xs = percentile xs 50

(* The highest integer percentile in [50, 95] whose nearest rank leaves
   at least ten samples above it; [None] when even the median leaves
   fewer. *)
let tail_percentile n =
  let rec go p =
    if p < 50 then None
    else if n - rank ~n p >= 10 then Some p
    else go (p - 1)
  in
  go 95

type summary = {
  n : int;
  mean : float;
  p50 : float;
  tail : float;
  tail_pct : int;
      (** the percentile [tail] is; 100 (the maximum) when no
          percentile has ten samples beyond it *)
}

let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> sum xs /. float_of_int (List.length xs)

let summarize xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summarize: no samples";
  let at p = a.(rank ~n p - 1) in
  let mean = mean xs in
  match tail_percentile n with
  | Some p -> { n; mean; p50 = at 50; tail = at p; tail_pct = p }
  | None -> { n; mean; p50 = at 50; tail = a.(n - 1); tail_pct = 100 }

(* Share of an end-to-end time that a set of separately timed stages
   accounts for. *)
let coverage ~stages ~total =
  if total <= 0.0 then invalid_arg "Stats.coverage: total must be positive";
  sum stages /. total

(* Operations attempted and failed.  An operation fails when the system
   answers with an error or when its output fails a correctness check;
   either way it counts against the attempts and yields no latency
   sample. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** most recent first, capped *)
}

let tally () = { attempted = 0; failed = 0; failures = [] }

let record t ~ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.failures < 20 then t.failures <- what :: t.failures
  end

let merge_into dst src =
  dst.attempted <- dst.attempted + src.attempted;
  dst.failed <- dst.failed + src.failed;
  dst.failures <- src.failures @ dst.failures

let ms_of_ns ns = ns /. 1e6
let since t0 = Obs.now_ns () -. t0
