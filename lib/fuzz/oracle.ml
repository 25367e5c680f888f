(* The differential oracle: every way this repo can execute a program
   must produce the same live-out checksum.

   The reference is Exec.Refinterp (array semantics, no optimization).
   Against it we hold:
     - Exec.Interp on the code of every greedy optimization level
       (the paper ladder base..c2+f4, plus the c2+p extension);
     - the ILP planning pipeline (zapc --plan ilp), which runs the
       beam search first and may return its plan;
     - the SPMD engine on 1/4/16 simulated processors, at c2+f3 and
       at c2+p;
     - when a C compiler is present, the Native runner built from the
       Sir.Emit_c translation unit and executed as a subprocess.

   Checksums go through Interp.Digest, which canonicalizes NaN
   payloads — a payload difference between OCaml's ** and libm's pow
   is not a semantic divergence.  SPMD configurations outside the
   engine's domain (halo deeper than a chunk) are Skipped, not
   failures; everything else that does not reproduce the reference
   checksum — including any exception out of a backend — is a
   divergence. *)

type status =
  | Agree
  | Diverged of { expected : string; got : string }
  | Crashed of string
  | Skipped of string

type report = {
  reference : string option;  (** refinterp checksum; None = it crashed *)
  results : (string * status) list;
}

type cfg = {
  levels : Compilers.Driver.level list;
  planner : bool;
  spmd_procs : int list;
  native : bool;
  machine : Machine.t;
}

let default =
  {
    levels = Compilers.Driver.all_levels @ [ Compilers.Driver.C2P ];
    planner = true;
    spmd_procs = [ 1; 4; 16 ];
    native = true;
    machine = Machine.t3e;
  }

let plan_procs = 4

(* c2+p fuses across loop-carried flow, so its clusters are where a
   statement reads at an offset what an earlier one of the same
   superstep wrote *)
let spmd_levels = Compilers.Driver.[ C2F3; C2P ]
let native_levels = Compilers.Driver.[ Baseline; C2F3 ]

(* The probe, the subprocess plumbing, and the workdir logic all live
   in [Native] now; the oracle only decides what to run and how to
   record the outcome.  [Native.Build] invokes every subprocess through
   [Unix.create_process] with an argv array — no shell ever parses a
   path, so workdirs with spaces or metacharacters are safe — and its
   errors carry the exact command line and exit status. *)
let cc_available () = Native.Toolchain.available ()

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let compile_result ~level prog =
  match Compilers.Driver.(compile_opts (opts level)) prog with
  | Ok c -> Ok c
  | Error d -> Error ("compile: " ^ Obs.Diagnostic.to_string d)
  | exception e -> Error ("compile: " ^ Printexc.to_string e)

let run ?(cfg = default) prog =
  match Exec.Refinterp.run prog with
  | exception Exec.Refinterp.Runtime_error m ->
      { reference = None; results = [ ("refinterp", Crashed m) ] }
  | exception e ->
      { reference = None; results = [ ("refinterp", Crashed (Printexc.to_string e)) ] }
  | reference -> (
      match Exec.Refinterp.checksum reference with
      | exception e ->
          {
            reference = None;
            results = [ ("refinterp", Crashed (Printexc.to_string e)) ];
          }
      | want ->
          let results = ref [] in
          let record name st = results := (name, st) :: !results in
          let check name got =
            record name
              (if String.equal got want then Agree
               else Diverged { expected = want; got })
          in
          (* interpreter at every greedy level *)
          List.iter
            (fun level ->
              let name = "interp@" ^ Compilers.Driver.level_name level in
              match compile_result ~level prog with
              | Error m -> record name (Crashed m)
              | Ok c -> (
                  match Exec.Interp.run c.Compilers.Driver.code with
                  | r -> check name (Exec.Interp.checksum r)
                  | exception Exec.Interp.Runtime_error m ->
                      record name (Crashed m)
                  | exception e -> record name (Crashed (Printexc.to_string e))))
            cfg.levels;
          (* the planning pipeline must agree with the reference; fuzz
             programs are small, so a modest column cap keeps the ILP's
             worst case bounded without ever affecting correctness
             (capped blocks fall back, which is exactly a code path
             worth fuzzing) *)
          if cfg.planner then begin
            let cost =
              Plan.Cost.create
                {
                  Plan.Cost.machine = cfg.machine;
                  procs = plan_procs;
                  opts = Comm.Model.all_on;
                }
                prog
            in
            let name = "plan@ilp" in
            let ilp = { Plan.Ilp.default with Plan.Ilp.max_clusters = 512 } in
            match Plan.Driver.compile_ilp ~ilp ~cost prog with
            | Ok (c, _) -> (
                match Exec.Interp.run c.Compilers.Driver.code with
                | r -> check name (Exec.Interp.checksum r)
                | exception Exec.Interp.Runtime_error m -> record name (Crashed m))
            | Error d ->
                record name (Crashed ("compile: " ^ Obs.Diagnostic.to_string d))
            | exception e -> record name (Crashed (Printexc.to_string e))
          end;
          (* SPMD on the simulated processor grid *)
          List.iter
            (fun level ->
              let compiled = lazy (compile_result ~level prog) in
              List.iter
                (fun procs ->
                  let name =
                    Printf.sprintf "spmd@%s/p%d"
                      (Compilers.Driver.level_name level) procs
                  in
                  let config =
                    {
                      Spmd.machine = cfg.machine;
                      procs;
                      opts = Comm.Model.all_on;
                      cachesim = false;
                    }
                  in
                  match Lazy.force compiled with
                  | Error m -> record name (Crashed m)
                  | Ok c -> (
                      match Spmd.execute config c with
                      | r -> check name r.Spmd.report.checksum
                      | exception Spmd.Unsupported m -> record name (Skipped m)
                      | exception Spmd.Runtime_error m -> record name (Crashed m)
                      | exception e -> record name (Crashed (Printexc.to_string e))))
                cfg.spmd_procs)
            spmd_levels;
          (* native, through the emitted C.  The salt for the workdir
             name is the emitted code itself (a pure function of the
             per-case PRNG seed), never the wall clock — see
             [Native.Build.fresh_workdir]. *)
          if cfg.native then begin
            if cc_available () then
              List.iter
                (fun level ->
                  let name = "native@" ^ Compilers.Driver.level_name level in
                  match compile_result ~level prog with
                  | Error m -> record name (Crashed m)
                  | Ok c -> (
                      let code = c.Compilers.Driver.code in
                      match Native.Build.run_once ~salt:(Hashtbl.hash code) code with
                      | Ok r -> check name r.Native.Build.checksum
                      | Error e ->
                          record name (Crashed (Native.Build.error_to_string e))
                      | exception e ->
                          record name (Crashed (Printexc.to_string e))))
                native_levels
            else record "native" (Skipped "no C compiler")
          end;
          { reference = Some want; results = List.rev !results })

let divergences r =
  List.filter
    (fun (_, st) -> match st with Diverged _ | Crashed _ -> true | _ -> false)
    r.results

let ok r = r.reference <> None && divergences r = []

let skips r =
  List.filter (fun (_, st) -> match st with Skipped _ -> true | _ -> false)
    r.results

(* Narrow a cfg to the backend families that actually diverged — the
   shrinker re-runs the oracle per candidate and must not pay for
   (especially) cc invocations that were never implicated. *)
let focus r cfg =
  let div = divergences r in
  let has pre = List.exists (fun (n, _) -> Astring.String.is_prefix ~affix:pre n) div in
  if r.reference = None then { cfg with native = false; spmd_procs = [] }
  else
    {
      cfg with
      planner = cfg.planner && has "plan@";
      spmd_procs = (if has "spmd@" then cfg.spmd_procs else []);
      native = cfg.native && has "native@";
      levels = (if has "interp@" then cfg.levels else []);
    }

let pp_status ppf = function
  | Agree -> Format.pp_print_string ppf "agree"
  | Diverged { expected; got } ->
      Format.fprintf ppf "DIVERGED (want %s, got %s)" expected got
  | Crashed m -> Format.fprintf ppf "CRASHED (%s)" m
  | Skipped m -> Format.fprintf ppf "skipped (%s)" m

let pp ppf r =
  (match r.reference with
  | Some sum -> Format.fprintf ppf "refinterp %s@," sum
  | None -> Format.fprintf ppf "refinterp CRASHED@,");
  List.iter
    (fun (name, st) -> Format.fprintf ppf "%-18s %a@," name pp_status st)
    r.results

let to_string r = Format.asprintf "@[<v>%a@]" pp r
