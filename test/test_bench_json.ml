(* The bench harness's --json rows must agree with its text tables:
   same configurations, same numbers (the text rounds to one decimal,
   so the JSON is checked through the same rounding). *)

let bench = "../bench/main.exe"

let available = Sys.file_exists bench

let run args =
  let out = Filename.temp_file "bench" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote bench) args
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, text)

let lines text = String.split_on_char '\n' text

let parse_rows text =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" then None
      else
        match Obs.Json.of_string line with
        | Ok (Obs.Json.Obj fields) -> Some fields
        | Ok j ->
            Alcotest.failf "row is not an object: %s" (Obs.Json.to_string j)
        | Error e -> Alcotest.failf "bad JSON row %S: %s" line e)
    (lines text)

let str field row =
  match List.assoc_opt field row with
  | Some (Obs.Json.String s) -> s
  | _ -> Alcotest.failf "row missing string field %S" field

let num field row =
  match List.assoc_opt field row with
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int n) -> float_of_int n
  | _ -> Alcotest.failf "row missing numeric field %S" field

let test_fig7_matches_text () =
  if available then begin
    let code, jout = run "fig7 --json" in
    Alcotest.(check int) "json exit 0" 0 code;
    let code, tout = run "fig7" in
    Alcotest.(check int) "text exit 0" 0 code;
    let rows = parse_rows jout in
    Alcotest.(check int) "one row per benchmark" (List.length Suite.all)
      (List.length rows);
    List.iter
      (fun row ->
        let b = str "bench" row in
        let line =
          match
            List.find_opt
              (fun l ->
                match String.split_on_char ' ' (String.trim l) with
                | first :: _ -> first = b
                | [] -> false)
              (lines tout)
          with
          | Some l -> l
          | None -> Alcotest.failf "no text row for %s" b
        in
        let contains sub = Astring.String.is_infix ~affix:sub line in
        let pct = Printf.sprintf "%.1f%%" (num "change_pct" row) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %% change %s in %S" b pct line)
          true (contains pct);
        Alcotest.(check bool)
          (Printf.sprintf "%s: arrays after" b)
          true
          (contains (Printf.sprintf " %d " (int_of_float (num "arrays_after" row)))))
      rows
  end

let test_fig9_rows_match_text () =
  if available then begin
    let code, jout = run "fig9 --json" in
    Alcotest.(check int) "json exit 0" 0 code;
    let code, tout = run "fig9" in
    Alcotest.(check int) "text exit 0" 0 code;
    let rows = parse_rows jout in
    (* one row per (benchmark, level, procs) *)
    let levels = 7 and procs = 4 in
    Alcotest.(check int) "row count"
      (List.length Suite.all * levels * procs)
      (List.length rows);
    (* the text table prints one line per procs value; every JSON
       improvement for that (bench, procs) must appear on it, with the
       same rounding *)
    let tlines = lines tout in
    let rec section_of bench = function
      | [] -> Alcotest.failf "no text section for %s" bench
      | l :: rest when String.trim l = bench -> rest
      | _ :: rest -> section_of bench rest
    in
    List.iter
      (fun row ->
        let b = str "bench" row in
        let p = int_of_float (num "procs" row) in
        let sect = section_of b tlines in
        let line =
          match
            List.find_opt
              (fun l ->
                match String.split_on_char ' ' (String.trim l) with
                | first :: _ -> first = string_of_int p
                | [] -> false)
              sect
          with
          | Some l -> l
          | None -> Alcotest.failf "no text line for %s procs=%d" b p
        in
        let want = Printf.sprintf "%.1f%%" (num "improvement_pct" row) in
        Alcotest.(check bool)
          (Printf.sprintf "%s procs=%d level=%s: %s on %S" b p
             (str "level" row) want line)
          true
          (Astring.String.is_infix ~affix:want line))
      rows
  end

(* the determinism contract at the harness level: fanning a section
   over a pool must not change a byte of its stdout rows *)
let check_jobs_invariant section args =
  if available then begin
    let run_stdout extra =
      let out = Filename.temp_file "bench" ".out" in
      let cmd =
        Printf.sprintf "%s %s %s > %s 2>/dev/null" (Filename.quote bench) args
          extra (Filename.quote out)
      in
      let code = Sys.command cmd in
      let ic = open_in out in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      Sys.remove out;
      Alcotest.(check int) (section ^ " exit 0" ^ extra) 0 code;
      text
    in
    Alcotest.(check string)
      (section ^ ": --jobs 2 rows byte-identical to sequential")
      (run_stdout "--jobs 1") (run_stdout "--jobs 2")
  end

let test_fig7_jobs_invariant () = check_jobs_invariant "fig7" "fig7 --json"
let test_fig8_jobs_invariant () = check_jobs_invariant "fig8" "fig8 --json"

let test_plan_jobs_invariant () =
  check_jobs_invariant "plan" "plan --json --tiny"

(* The reproduced figures themselves, pinned: integer cache counts and
   IEEE arithmetic with no libm calls, so the rows are byte-portable.
   Regenerate with
     bench/main.exe fig6 fig7 fig8 fig9 fig10 fig11 --json > test/golden/figures.jsonl
   only when a change is meant to move the figures. *)
let test_figures_golden () =
  if available then begin
    let code, out = run "fig6 fig7 fig8 fig9 fig10 fig11 --json" in
    Alcotest.(check int) "exit 0" 0 code;
    let ic = open_in_bin "golden/figures.jsonl" in
    let want = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let want = lines want and got = lines out in
    Alcotest.(check int) "row count" (List.length want) (List.length got);
    List.iteri
      (fun i (w, g) -> Alcotest.(check string) (Printf.sprintf "row %d" (i + 1)) w g)
      (List.combine want got)
  end

(* The section 5.5 table and the ablations, pinned as text: they are
   deterministic model output, and their measurement (Comm.Perf's
   simulate and time model) is shared with the figures above.
   Regenerate with
     bench/main.exe sec55 ablate > test/golden/sec55_ablate.txt
   only when a change is meant to move them. *)
let test_sec55_ablate_golden () =
  if available then begin
    let code, out = run "sec55 ablate" in
    Alcotest.(check int) "exit 0" 0 code;
    let ic = open_in_bin "golden/sec55_ablate.txt" in
    let want = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let want = lines want and got = lines out in
    Alcotest.(check int) "line count" (List.length want) (List.length got);
    List.iteri
      (fun i (w, g) ->
        Alcotest.(check string) (Printf.sprintf "line %d" (i + 1)) w g)
      (List.combine want got)
  end

let suites =
  [
    ( "bench.json",
      [
        Alcotest.test_case "fig7 --json matches text" `Quick
          test_fig7_matches_text;
        Alcotest.test_case "fig9 --json matches text" `Slow
          test_fig9_rows_match_text;
        Alcotest.test_case "fig7 rows invariant under --jobs" `Quick
          test_fig7_jobs_invariant;
        Alcotest.test_case "fig8 rows invariant under --jobs" `Slow
          test_fig8_jobs_invariant;
        Alcotest.test_case "plan rows invariant under --jobs" `Slow
          test_plan_jobs_invariant;
        Alcotest.test_case "fig6-fig11 rows match the golden" `Slow
          test_figures_golden;
        Alcotest.test_case "sec55 and ablate text match the golden" `Slow
          test_sec55_ablate_golden;
      ] );
  ]
