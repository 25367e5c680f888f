(* Regeneration of every table and figure in the paper's evaluation.

   Absolute numbers come from our machine models, not the authors'
   1998 testbeds; EXPERIMENTS.md records the paper-vs-measured shape
   comparison for each experiment. *)

open Harness

let perf_levels =
  Compilers.Driver.[ F1; C1; F2; F3; C2; C2F3; C2F4 ]

let procs_axis = [ 1; 4; 16; 64 ]

(* ------------------------------------------------------------------ *)
(* Figure 6: commercial compiler capabilities                          *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  let table = Suite.Fragments.evaluate () in
  if !json_mode then
    List.iter
      (fun (caps : Compilers.Vendors.caps) ->
        List.iter
          (fun ((frag : Suite.Fragments.t), rows) ->
            json_row
              Obs.Json.
                [
                  ("fig", String "fig6");
                  ("compiler", String caps.Compilers.Vendors.vname);
                  ("fragment", Int frag.Suite.Fragments.id);
                  ("ok", Bool (List.assoc caps rows));
                ])
          table)
      Compilers.Vendors.all
  else begin
    heading "Figure 6: observed behavior of five array language compilers";
    Printf.printf "%-20s" "compiler";
    List.iter (fun i -> Printf.printf " (%d)" i) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    print_newline ();
    List.iter
      (fun (caps : Compilers.Vendors.caps) ->
        Printf.printf "%-20s" caps.Compilers.Vendors.vname;
        List.iter
          (fun ((_ : Suite.Fragments.t), rows) ->
            let ok = List.assoc caps rows in
            Printf.printf "  %s " (if ok then "Y" else "."))
          table;
        print_newline ())
      Compilers.Vendors.all;
    Printf.printf
      "\n(1)-(3) statement fusion; (4)-(5) compiler temporaries;\n\
       (6)-(7) user temporaries; (8) compiler/user trade-off.\n\
       'Y' = proper fused/contracted code produced.\n"
  end

(* ------------------------------------------------------------------ *)
(* Figure 7: static arrays contracted                                  *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  if not !json_mode then begin
    heading "Figure 7: static arrays contracted (compiler/user)";
    row "%-9s %22s %14s %9s %8s\n" "program" "w/o contraction (c/u)"
      "w/ contraction" "% change" "scalar"
  end;
  (* compile/count on the pool, print in benchmark order *)
  let data =
    Support.Pool.map ~domains:!Harness.jobs
      (fun (b : Suite.bench) ->
        let prog = Suite.program b in
        let nc, nu = Ir.Prog.static_array_counts prog in
        let c = compile ~level:Compilers.Driver.C2 prog in
        (b, nc, nu, Compilers.Driver.remaining_arrays c))
      Suite.all
  in
  List.iter
    (fun ((b : Suite.bench), nc, nu, left) ->
      let total = nc + nu in
      let pct =
        100.0 *. float_of_int (left - total) /. float_of_int total
      in
      if !json_mode then
        json_row
          Obs.Json.
            [
              ("fig", String "fig7");
              ("bench", String b.Suite.name);
              ("arrays_total", Int total);
              ("arrays_compiler", Int nc);
              ("arrays_user", Int nu);
              ("arrays_after", Int left);
              ("change_pct", Float pct);
              ( "scalar_paper",
                match b.Suite.scalar_arrays with
                | Some k -> Int k
                | None -> Null );
            ]
      else
        row "%-9s %13d (%d/%d) %14d %8.1f%% %8s\n" b.Suite.name total nc nu
          left pct
          (match b.Suite.scalar_arrays with
          | Some k -> string_of_int k
          | None -> "na"))
    data

(* ------------------------------------------------------------------ *)
(* Figure 8: memory usage and maximum problem size                     *)
(* ------------------------------------------------------------------ *)

(* Largest tile edge whose post-compilation footprint fits in [bytes];
   [cap] bounds the search for configurations using no array memory at
   all (EP after contraction). *)
let max_tile ~level ~bytes ~cap (b : Suite.bench) =
  let fits n =
    let prog = Suite.program ~tile:n b in
    let c = compile ~level prog in
    Exec.Interp.footprint_bytes c.Compilers.Driver.code <= bytes
  in
  if fits cap then None (* unbounded within the cap *)
  else begin
    let lo = ref 4 and hi = ref cap in
    (* invariant: fits lo, not (fits hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if fits mid then lo := mid else hi := mid
    done;
    Some !lo
  end

let fig8 () =
  if not !json_mode then begin
    heading "Figure 8: effect of contraction on maximum problem size";
    row "%-9s %4s %4s %9s | %26s | %26s\n" "program" "lb" "la" "C-value"
      "T3E max tile  (% / %vol)" "SP-2 max tile  (% / %vol)"
  end;
  let machines = [ Machine.t3e; Machine.sp2 ] in
  (* the max-tile binary searches dominate — run them on the pool,
     print per benchmark in suite order *)
  let data =
    Support.Pool.map ~domains:!Harness.jobs
      (fun (b : Suite.bench) ->
        let prog = Suite.program b in
        let base = compile ~level:Compilers.Driver.Baseline prog in
        let c2 = compile ~level:Compilers.Driver.C2 prog in
        let lb = Compilers.Driver.remaining_arrays base in
        let la = Compilers.Driver.remaining_arrays c2 in
        let cap = if b.Suite.rank = 1 then 200_000_000 else 20_000 in
        let tiles =
          List.map
            (fun (m : Machine.t) ->
              let bytes = m.Machine.node_memory_bytes in
              let nb = max_tile ~level:Compilers.Driver.Baseline ~bytes ~cap b in
              let na = max_tile ~level:Compilers.Driver.C2 ~bytes ~cap b in
              (m, nb, na))
            machines
        in
        (b, lb, la, tiles))
      Suite.all
  in
  List.iter
    (fun ((b : Suite.bench), lb, la, tiles) ->
      let cval =
        if la = 0 then infinity
        else 100.0 *. float_of_int (lb - la) /. float_of_int la
      in
      let show (nb, na) =
        match (nb, na) with
        | Some nb, Some na ->
            let pct = 100.0 *. float_of_int (na - nb) /. float_of_int nb in
            let volb = float_of_int nb ** float_of_int b.Suite.rank in
            let vola = float_of_int na ** float_of_int b.Suite.rank in
            let pvol = 100.0 *. (vola -. volb) /. volb in
            Printf.sprintf "%7d ->%8d (%4.0f/%5.0f)" nb na pct pvol
        | Some nb, None -> Printf.sprintf "%7d ->     inf (inf)" nb
        | None, _ -> "unbounded"
      in
      if !json_mode then
        List.iter
          (fun ((m : Machine.t), nb, na) ->
            let opt = function Some n -> Obs.Json.Int n | None -> Obs.Json.Null in
            json_row
              Obs.Json.
                [
                  ("fig", String "fig8");
                  ("bench", String b.Suite.name);
                  ("machine", String m.Machine.name);
                  ("arrays_baseline", Int lb);
                  ("arrays_c2", Int la);
                  ("c_value", Float cval);
                  ("max_tile_baseline", opt nb);
                  ("max_tile_c2", opt na);
                ])
          tiles
      else
        let tile_of m =
          let _, nb, na =
            List.find (fun (m', _, _) -> m' == (m : Machine.t)) tiles
          in
          (nb, na)
        in
        row "%-9s %4d %4d %9s | %26s | %26s\n" b.Suite.name lb la
          (if cval = infinity then "inf" else Printf.sprintf "%.1f" cval)
          (show (tile_of Machine.t3e))
          (show (tile_of Machine.sp2)))
    data;
  if not !json_mode then
    Printf.printf
      "\nlb/la = live arrays before/after contraction; C = 100*(lb-la)/la\n\
       predicts the %% change in problem volume (paper Figure 8).\n"

(* ------------------------------------------------------------------ *)
(* Figures 9-11: runtime improvement over baseline                     *)
(* ------------------------------------------------------------------ *)

let perf_figure (m : Machine.t) =
  let fig =
    match m.Machine.name with
    | "Cray T3E" -> "fig9"
    | "IBM SP-2" -> "fig10"
    | _ -> "fig11"
  in
  if not !json_mode then
    heading
      (Printf.sprintf "Figure %s: %% improvement over baseline on the %s"
         (String.sub fig 3 (String.length fig - 3))
         m.Machine.name);
  (* the cache simulations dominate — one pool task per benchmark
     (baseline + every level), then the cheap per-procs communication
     recosting and all printing happen sequentially in suite order *)
  let data =
    Support.Pool.map ~domains:!Harness.jobs
      (fun (b : Suite.bench) ->
        let prog = Suite.program b in
        let compiled_of level = compile ~level prog in
        let base = compiled_of Compilers.Driver.Baseline in
        let base_comp = Comm.Perf.simulate m base.Compilers.Driver.code in
        let level_data =
          List.map
            (fun level ->
              let c = compiled_of level in
              let comp = Comm.Perf.simulate m c.Compilers.Driver.code in
              if comp.checksum <> base_comp.checksum then
                failwith
                  (Printf.sprintf "%s: %s changed the program's results!"
                     b.Suite.name
                     (Compilers.Driver.level_name level));
              (level, c, comp))
            perf_levels
        in
        (b, base, base_comp, level_data))
      Suite.all
  in
  List.iter
    (fun ((b : Suite.bench), base, base_comp, level_data) ->
      if not !json_mode then subheading b.Suite.name;
      if not !json_mode then begin
        row "%6s" "procs";
        List.iter
          (fun l -> row "%9s" (Compilers.Driver.level_name l))
          perf_levels;
        print_newline ()
      end;
      List.iter
        (fun procs ->
          let tb = measure_time m ~procs base_comp base in
          if not !json_mode then row "%6d" procs;
          List.iter
            (fun (level, c, comp) ->
              let t = measure_time m ~procs comp c in
              let pct = improvement_pct ~baseline:tb t in
              if !json_mode then
                json_row
                  Obs.Json.
                    [
                      ("fig", String fig);
                      ("machine", String m.Machine.name);
                      ("bench", String b.Suite.name);
                      ("level", String (Compilers.Driver.level_name level));
                      ("procs", Int procs);
                      ("improvement_pct", Float pct);
                    ]
              else row "%8.1f%%" pct)
            level_data;
          if not !json_mode then print_newline ())
        procs_axis)
    data

let fig9 () = perf_figure Machine.t3e
let fig10 () = perf_figure Machine.sp2
let fig11 () = perf_figure Machine.paragon

(* ------------------------------------------------------------------ *)
(* Section 5.5: interaction with communication optimization            *)
(* ------------------------------------------------------------------ *)

let sec55 () =
  heading
    "Section 5.5: slowdown when communication optimizations are \
     favored over fusion (c2+f3, 16 processors)";
  row "%-9s %12s %12s %12s\n" "program" "T3E" "SP-2" "Paragon";
  let procs = 16 in
  List.iter
    (fun (b : Suite.bench) ->
      let prog = Suite.program b in
      let ff =
        compile ~level:Compilers.Driver.C2F3 prog
      in
      let veto = Comm.Interact.favor_comm_veto ~procs prog in
      let fc =
        compile ~may_fuse:veto ~level:Compilers.Driver.C2F3
          prog
      in
      row "%-9s" b.Suite.name;
      List.iter
        (fun m ->
          let time c =
            let comp = Comm.Perf.simulate m c.Compilers.Driver.code in
            measure_time m ~procs comp c
          in
          let t_ff = time ff in
          let t_fc = time fc in
          row " %11.1f%%" (100.0 *. (t_fc -. t_ff) /. t_ff))
        Machine.all;
      print_newline ())
    Suite.all;
  Printf.printf
    "\npositive = favoring communication optimization over fusion for\n\
     contraction loses performance (the paper's conclusion).\n"

(* ------------------------------------------------------------------ *)
(* Ablations (beyond the paper's tables)                               *)
(* ------------------------------------------------------------------ *)

let ablate_reduction_fusion () =
  subheading "ablation: reduction fusion (EP, c2)";
  let prog = Suite.load "ep" in
  let with_rf = compile ~level:Compilers.Driver.C2 prog in
  let without =
    compile ~reduction_fusion:false
      ~level:Compilers.Driver.C2 prog
  in
  let m = Machine.t3e in
  let time c =
    measure_time m ~procs:1 (Comm.Perf.simulate m c.Compilers.Driver.code) c
  in
  let t_with = time with_rf in
  let t_without = time without in
  row "with reduction fusion:    %2d arrays, %10.0f ns\n"
    (Compilers.Driver.remaining_arrays with_rf)
    t_with;
  row "without reduction fusion: %2d arrays, %10.0f ns  (%.1f%% slower)\n"
    (Compilers.Driver.remaining_arrays without)
    t_without
    (100.0 *. (t_without -. t_with) /. t_with)

let ablate_weight_order () =
  subheading "ablation: greedy weight ordering (fragment 8)";
  let frag =
    List.find (fun f -> f.Suite.Fragments.id = 8) Suite.Fragments.all
  in
  let _, stmts = Suite.Fragments.block frag in
  let g = Core.Asdg.build stmts in
  let cands_bad = [ "__t1"; "T1"; "T2" ] in
  let run order cands =
    let p = Core.Fusion.for_contraction ~order ~candidates:cands g in
    Core.Contraction.decide p ~candidates:cands
  in
  let by_weight = run `Weight cands_bad in
  let by_source = run `Source cands_bad in
  row "decreasing-weight order contracts: %d (%s)\n"
    (List.length by_weight)
    (String.concat ", " by_weight);
  row "adversarial source order contracts: %d (%s)\n"
    (List.length by_source)
    (String.concat ", " by_source)

(* A scanline kernel with the dependence shape the paper attributes to
   SP (§5.2): a full-size temporary consumed at an offset along one
   dimension.  Strict Definition-5 fusion cannot fuse producer and
   consumer (the flow UDV is non-null), so the paper's contraction
   leaves T allocated; sequential fusion + rank-reducing contraction
   (c2+p) shrinks it to a single row. *)
let linesweep_src =
  {|
program linesweep;
config n := 96;
config steps := 4;
region R = [1..n, 1..n];
var A, B, T : [0..n+1, 0..n+1];
scalar sum := 0.0;
export B, sum;
begin
  [0..n+1, 0..n+1] A := sin(0.1 * index1) * cos(0.07 * index2);
  for t := 1 to steps do
    [R] T := A * A + 0.5;
    [R] B := T + 0.5 * T@[0,-1];
    [R] A := B * 0.99;
  end;
  sum := +<< R B;
end.
|}

let ablate_partial_contraction () =
  subheading
    "ablation: contraction to lower-dimensional arrays (paper \
     \u{00a7}5.2 future work; sequential, 1 processor)";
  let m = Machine.t3e in
  let report name prog level =
    let c = compile ~level prog in
    let comp = Comm.Perf.simulate m c.Compilers.Driver.code in
    let t = measure_time m ~procs:1 comp c in
    row "%-10s %-6s: %2d allocations, %9d bytes, %12.0f ns\n" name
      (Compilers.Driver.level_name level)
      (Compilers.Driver.remaining_arrays c)
      comp.footprint_bytes t;
    comp.checksum
  in
  (* SP itself: its self-stencil updates admit no rank reduction — the
     honest negative result *)
  let sp = Suite.load "sp" in
  let s1 = report "sp" sp Compilers.Driver.C2F3 in
  let s2 = report "sp" sp Compilers.Driver.C2P in
  if s1 <> s2 then failwith "c2+p changed SP's results";
  (* the scanline kernel: T contracts from n x n to one row *)
  let ls = Zap.Elaborate.compile_string linesweep_src in
  let s1 = report "linesweep" ls Compilers.Driver.C2F3 in
  let s2 = report "linesweep" ls Compilers.Driver.C2P in
  if s1 <> s2 then failwith "c2+p changed linesweep's results"

(* Statement merge (array operation synthesis, Hwang et al. — the
   related-work alternative, §6) vs this paper's fusion+contraction.
   Two kernels expose the trade:
   - [offset]: the temporary is consumed at nonzero offsets, so
     contraction is impossible (non-null flow UDV) but synthesis can
     still eliminate it — at the cost of duplicated computation;
   - [shared]: the temporary has two offset-0 consumers; contraction
     eliminates it for free, synthesis duplicates its computation. *)
let merge_kernel ~offset =
  let expensive = "sqrt(abs(sin(A) * cos(A@[0,1]) + 1.5))" in
  let uses =
    if offset then "T@[0,1] + T@[0,-1]" else "T * 1.5"
  in
  let second_use = if offset then "" else "  [R] C := T + B;\n" in
  (* the definition must cover the offset uses in the first kernel;
     in the shared kernel it shares the consumers' region so that
     contraction is applicable *)
  let def_region = if offset then "[1..n+1, 1..n+1]" else "[R]" in
  Printf.sprintf
    {|
program mergek;
config n := 64;
region R = [2..n, 2..n];
var A, B, C, T : [0..n+2, 0..n+2];
scalar s0;
export B, C;
begin
  [0..n+2, 0..n+2] A := 0.3 * index1 + 0.7 * index2;
  s0 := 0.0;   -- block boundary: keep the input out of the pipeline
  %s T := %s;
  [R] B := %s;
%s
end.
|}
    def_region expensive uses second_use

let ablate_merge_vs_contraction () =
  subheading
    "ablation: statement merge (array synthesis, related work \
     \u{00a7}6) vs fusion + contraction";
  let m = Machine.t3e in
  let report tag prog level =
    let c = compile ~level prog in
    let comp = Comm.Perf.simulate m c.Compilers.Driver.code in
    let t = measure_time m ~procs:1 comp c in
    row "  %-26s %2d arrays %9d flops %12.0f ns\n" tag
      (Compilers.Driver.remaining_arrays c)
      comp.flops t;
    comp.checksum
  in
  List.iter
    (fun offset ->
      row "%s kernel:\n" (if offset then "offset-consumed" else "shared");
      let prog = Zap.Elaborate.compile_string (merge_kernel ~offset) in
      let merged, gone = Core.Merge.run ~max_uses:2 prog in
      let s1 = report "contraction (c2+f3)" prog Compilers.Driver.C2F3 in
      let s2 =
        report
          (Printf.sprintf "synthesis (merged %d) + c2" (List.length gone))
          merged Compilers.Driver.C2F3
      in
      if s1 <> s2 then failwith "merge changed results")
    [ true; false ]

(* The paper's central architectural claim: scalar-level optimization
   after scalarization cannot recover what array-level contraction
   achieves.  We hand the baseline scalarization to our model of a
   scalar back end (constant folding + CSE) and compare against
   array-level c2 — with and without the same back end behind it. *)
let ablate_backend_cannot_recover () =
  subheading
    "ablation: scalar back end (fold+CSE) vs array-level contraction \
     (tomcatv, T3E, 1 processor)";
  let prog = Suite.load "tomcatv" in
  let m = Machine.t3e in
  let report tag code =
    let comp = Comm.Perf.simulate m code in
    row "  %-26s %2d arrays %9d flops %12.0f ns\n" tag
      (List.length code.Sir.Code.allocs)
      comp.flops
      (Comm.Perf.time_ns m comp ~comm_ns:0.0);
    comp.checksum
  in
  let base =
    (compile ~level:Compilers.Driver.Baseline prog)
      .Compilers.Driver.code
  in
  let c2 =
    (compile ~level:Compilers.Driver.C2F3 prog)
      .Compilers.Driver.code
  in
  let s1 = report "baseline" base in
  let s2 = report "baseline + back end" (Sir.Simplify.program base) in
  let s3 = report "c2+f3" c2 in
  let s4 = report "c2+f3 + back end" (Sir.Simplify.program c2) in
  if not (s1 = s2 && s2 = s3 && s3 = s4) then
    failwith "back-end ablation changed results";
  row
    "  (the back end trims operations but allocations only move at the\n\
    \   array level: fusion/contraction must happen before \
     scalarization)\n"

let ablate () =
  heading "Ablations";
  ablate_reduction_fusion ();
  ablate_weight_order ();
  ablate_partial_contraction ();
  ablate_merge_vs_contraction ();
  ablate_backend_cannot_recover ()
