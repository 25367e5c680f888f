(* lazy-stream: runtime fusion through the lazy frontend.

   Lazyarr.Trace contexts on one engine, greedy planning (the stream
   moves to a fresh context every few iterations so memory stays
   bounded; the engine's plan cache stays warm).  Each iteration records
   the 1-D 3-point stencil chain (gen, two shifts, zip_with, map) over
   n = 65536 points with constants that depend on the iteration and the
   seed, then forces its checksum.  Every flush after the first has the
   same trace shape, so it is a plan-cache hit in Engine.compile_ir and
   the time goes to lowering and to Exec.Interp without a cache trace:
   the interpreter used another way than by a zapd Run.

   Set-up is a context on a fresh engine and its first (cold) flush,
   repeated at every context change.  Each forced
   checksum is compared, outside the timed interval, with
   Exec.Refinterp on the trace's direct lowering. *)

module T = Lazyarr.Trace

type config = { n : int }

let default = { n = 65536 }

(* Iteration constants: distinct for every (seed, iteration) and far
   from 0, so no value in the chain degenerates. *)
let constants ~seed t =
  let s = float_of_int (1 + (abs seed mod 1000)) /. 1000.0 in
  let ft = float_of_int t in
  (1.0 +. (0.125 *. ft *. s), ft +. s, 0.25 /. (ft +. s))

let record cfg ctx ~seed t =
  let a, b, c = constants ~seed t in
  let r = Ir.Region.of_bounds [ (0, cfg.n - 1) ] in
  let src =
    T.gen ctx r Ir.Expr.(Binop (Mul, Const a, Binop (Add, Idx 1, Const b)))
  in
  let left = T.shift [| -1 |] src in
  let right = T.shift [| 1 |] src in
  let s = T.zip_with (fun x y -> Ir.Expr.Binop (Ir.Expr.Add, x, y)) left right in
  T.map (fun x -> Ir.Expr.Binop (Ir.Expr.Mul, Ir.Expr.Const c, x)) s

type iteration = {
  record_ns : float;
  total_ns : float;  (** record + flush *)
  checksum : string;
  node : T.arr;
}

let iterate cfg ctx ~seed t =
  let t0 = Obs.now_ns () in
  let node = record cfg ctx ~seed t in
  let record_ns = Stats.since t0 in
  let checksum = T.checksum node in
  { record_ns; total_ns = Stats.since t0; checksum; node }

let check ctx tally t it =
  let want =
    Exec.Refinterp.checksum (Exec.Refinterp.run (T.lower_direct ctx it.node))
  in
  Stats.record tally ~ok:(it.checksum = want)
    (Printf.sprintf "iteration %d: checksum %s <> reference %s" t it.checksum
       want)

(* A fresh context and its cold flush; returns the context, the seconds
   it took and the cold iteration. *)
let setup_once cfg ~seed =
  let t0 = Obs.now_ns () in
  let ctx = T.create ~name:"lazy-stream" () in
  let it = iterate cfg ctx ~seed 1 in
  (ctx, Stats.since t0 /. 1e9, it)

(* Modelled run time of the flushed program's greedy c2+f3 plan (on its
   eager twin: the same statements with the constants inline). *)
let model_ns ctx (it : iteration) =
  let prog = T.lower_direct ctx it.node in
  let c = Compilers.Driver.compile_exn_opts Compilers.Driver.default_opts prog in
  let machine =
    Result.get_ok
      (Service.Api.machine_of_name Service.Api.default_target.Service.Api.machine)
  in
  (Comm.Perf.measure { Comm.Perf.machine; procs = 1; comm = Comm.Model.all_on } c)
    .Comm.Perf.time_ns

(* Warm flushes must be plan-cache hits that compile nothing. *)
let check_warm tally engine (s0 : Service.Api.server_stats) =
  let s1 = Service.Engine.server_stats engine in
  let hits = s1.Service.Api.cache.Service.Api.hits - s0.Service.Api.cache.Service.Api.hits in
  let misses = s1.Service.Api.cache.Service.Api.misses - s0.Service.Api.cache.Service.Api.misses in
  let compiles = s1.Service.Api.compiles_computed - s0.Service.Api.compiles_computed in
  let rate =
    if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses)
    else 0.0
  in
  Stats.record tally
    ~ok:(rate >= 0.9 && compiles = 0)
    (Printf.sprintf "warm flushes: hit rate %.2f, %d compiles" rate compiles);
  rate

(* A context's op log keeps every recorded op and every forced array,
   so the stream moves to a fresh context on the same engine (the plan
   cache stays warm) every [rotate_every] iterations; memory stays
   bounded however long the run is. *)
let rotate_every = 16

(* Iterations [2, 3, ...] until [seconds] have passed and at least
   [min_iters] have run.  [on_rotate] runs at each context change,
   outside every timed interval. *)
let stream ~seconds ~min_iters ~first ~on_rotate ~iteration =
  let engine = T.engine first in
  let ctx = ref first in
  let t_end = Obs.now_ns () +. (seconds *. 1e9) in
  let rec loop t n =
    if n >= min_iters && Obs.now_ns () >= t_end then ()
    else begin
      if t mod rotate_every = 0 then begin
        ctx := T.create ~name:"lazy-stream" ~engine ();
        on_rotate ()
      end;
      iteration !ctx t;
      loop (t + 1) (n + 1)
    end
  in
  loop 2 0

let measure cfg ~seed ~seconds ~setup_reps =
  let tally = Stats.tally () in
  let setups = ref [] in
  (* set-up repetitions are spread over the run, one per context change,
     so their median reflects the whole run rather than its first
     moments *)
  let set_up () =
    let ctx, s, it = setup_once cfg ~seed in
    setups := s :: !setups;
    check ctx tally 1 it;
    (ctx, it)
  in
  let first, cold = set_up () in
  let model = model_ns first cold in
  let engine = T.engine first in
  let s0 = Service.Engine.server_stats engine in
  let lat = ref [] in
  stream ~seconds ~min_iters:1 ~first
    ~on_rotate:(fun () -> ignore (set_up ()))
    ~iteration:(fun ctx t ->
      let it = iterate cfg ctx ~seed t in
      check ctx tally t it;
      lat := Stats.ms_of_ns it.total_ns :: !lat);
  ignore (check_warm tally engine s0);
  while List.length !setups < setup_reps do
    ignore (set_up ())
  done;
  let s = Stats.summarize !lat in
  {
    Report.tally;
    metrics =
      [
        Report.setup_metric !setups;
      ]
      @ Report.latency ~what:"flush" s
      @ [
        Report.metric "model_ns" "model-ns" model
          ~note:"perf.time_ns of the stencil's greedy plan";
      ];
    detail =
      [
        ("flush_ms", Report.summary_json s);
        ("setup_s", Obs.Json.List (List.map (fun x -> Obs.Json.Float x) !setups));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced                                                              *)
(* ------------------------------------------------------------------ *)

let span_ns (r : Obs.report) name =
  let rec find = function
    | [] -> None
    | (s : Obs.span) :: rest ->
        if s.Obs.span_name = name then Some s else find (s.Obs.children @ rest)
  in
  match find r.Obs.spans with Some s -> s.Obs.elapsed_ns | None -> 0.0

(* One traced iteration split at the Obs spans, in nanoseconds. *)
type split = {
  record : float;
  lower : float;
  execute : float;
  cache : float;  (** lazy.flush minus lower minus execute *)
  observe : float;  (** after the flush: digesting the forced values *)
  total : float;
}

(* Alternates untraced iterations with iterations run under an Obs
   recorder, whose lazy.flush / lazy.lower / lazy.execute spans split
   the flush; the difference between the two kinds is the tracing
   overhead. *)
let layers cfg ~seed ~seconds ~min_rounds =
  let tally = Stats.tally () in
  let first, _, cold = setup_once cfg ~seed in
  check first tally 1 cold;
  let engine = T.engine first in
  let s0 = Service.Engine.server_stats engine in
  let plain = ref [] and traced = ref [] in
  (* even iterations run plain, odd ones under a recorder *)
  stream ~seconds ~min_iters:(2 * min_rounds) ~first ~on_rotate:ignore
    ~iteration:(fun ctx t ->
      if t mod 2 = 0 then begin
        let it = iterate cfg ctx ~seed t in
        check ctx tally t it;
        plain := it.total_ns :: !plain
      end
      else begin
        let recorder = Obs.create () in
        let it = Obs.run recorder (fun () -> iterate cfg ctx ~seed t) in
        check ctx tally t it;
        let r = Obs.report recorder in
        let flush = span_ns r "lazy.flush" in
        let lower = span_ns r "lazy.lower" in
        let execute = span_ns r "lazy.execute" in
        traced :=
          {
            record = it.record_ns;
            lower;
            execute;
            cache = flush -. lower -. execute;
            observe = it.total_ns -. it.record_ns -. flush;
            total = it.total_ns;
          }
          :: !traced
      end);
  let rate = check_warm tally engine s0 in
  let med f = Stats.ms_of_ns (Stats.median (List.map f !traced)) in
  (* pairs of adjacent iterations, one plain and one traced: the host's
     speed phases last seconds, so the pairwise difference cancels them *)
  let pairs = min (List.length !traced) (List.length !plain) in
  let chronological xs = List.filteri (fun i _ -> i < pairs) (List.rev xs) in
  let overhead =
    List.map2 ( -. )
      (chronological (List.map (fun sp -> sp.total) !traced))
      (chronological !plain)
  in
  let m = Report.metric in
  ( tally,
    [
      m "lazy.record_us" "us" (1e3 *. med (fun sp -> sp.record));
      m "lazy.lower_ms" "ms" (med (fun sp -> sp.lower));
      m "lazy.execute_ms" "ms" (med (fun sp -> sp.execute));
      m "lazy.cache_ms" "ms" (med (fun sp -> sp.cache))
        ~note:"lazy.flush minus lower minus execute";
      m "lazy.observe_ms" "ms" (med (fun sp -> sp.observe))
        ~note:"checksum of the forced values, after the flush";
      m "lazy.hit_rate" "ratio" rate;
      m "trace.overhead_flush_ms" "ms" (Stats.ms_of_ns (Stats.median overhead))
        ~note:"iteration under an Obs recorder minus the plain one before it";
    ] )
