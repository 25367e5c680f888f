(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation, plus ablations and wall-clock measurements of
   the optimizer itself.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig6    -- one table/figure
     (fig6 fig7 fig8 fig9 fig10 fig11 sec55 ablate speed)          *)

let optimizer_speed () =
  Harness.heading
    "Optimizer wall-clock (Bechamel): the paper claims O(re) fusion \
     and effectively-linear FIND-LOOP-STRUCTURE";
  let open Bechamel in
  let tomcatv = Suite.load "tomcatv" in
  let block =
    match Ir.Prog.blocks tomcatv with
    | _ :: big :: _ -> big
    | [ b ] -> b
    | [] -> failwith "tomcatv has no blocks"
  in
  let g = Core.Asdg.build block in
  let candidates = List.map fst (Ir.Prog.confined_arrays tomcatv) in
  let udvs =
    List.init 64 (fun i ->
        Support.Vec.of_list [ (i mod 3) - 1; (i mod 5) - 2 ])
  in
  let tests =
    [
      Test.make ~name:"asdg-build (tomcatv block)"
        (Staged.stage (fun () -> ignore (Core.Asdg.build block)));
      Test.make ~name:"fusion-for-contraction"
        (Staged.stage (fun () ->
             ignore (Core.Fusion.for_contraction ~candidates g)));
      Test.make ~name:"find-loop-structure (64 UDVs)"
        (Staged.stage (fun () ->
             ignore (Core.Loopstruct.find ~rank:2 udvs)));
      Test.make ~name:"full compile tomcatv @ c2+f3"
        (Staged.stage (fun () ->
             ignore
               (Compilers.Driver.compile_opts (Compilers.Driver.opts Compilers.Driver.C2F3) tomcatv)));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test
      in
      let stats = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-36s %12.0f ns/run\n" name est
          | _ -> Printf.printf "%-36s (no estimate)\n" name)
        stats)
    tests

let sections =
  [
    ("fig6", Figures.fig6);
    ("fig7", Figures.fig7);
    ("fig8", Figures.fig8);
    ("fig9", Figures.fig9);
    ("fig10", Figures.fig10);
    ("fig11", Figures.fig11);
    ("sec55", Figures.sec55);
    ("ablate", Figures.ablate);
    ("spmd", Spmd_agree.section);
    ("plan", Plan_gap.section);
    ("native", Native_exec.section);
    ("lazy", Lazy_stream.section);
    ("speed", optimizer_speed);
  ]

let () =
  let bad_jobs v =
    Printf.eprintf "bad --jobs %s (want a positive integer)\n" v;
    exit 1
  in
  let set_jobs v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> Harness.jobs := n
    | _ -> bad_jobs v
  in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--" :: tl -> parse acc tl
    | "--json" :: tl ->
        Harness.json_mode := true;
        parse acc tl
    | "--tiny" :: tl ->
        Harness.tiny_mode := true;
        parse acc tl
    | "--jobs" :: v :: tl ->
        set_jobs v;
        parse acc tl
    | [ "--jobs" ] -> bad_jobs "(missing)"
    | a :: tl when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
        set_jobs (String.sub a 7 (String.length a - 7));
        parse acc tl
    | a :: tl -> parse (a :: acc) tl
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) sections
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown section %s (have: %s)\n" name
                (String.concat " " (List.map fst sections));
              exit 1)
        names
