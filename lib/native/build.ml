type error = { argv : string list; status : string; detail : string }

let error_to_string e =
  match e.argv with
  | [] -> Printf.sprintf "native: %s" e.detail
  | argv ->
      Printf.sprintf "`%s` failed (%s): %s" (Proc.render_argv argv) e.status
        (String.trim e.detail)

type built = { runner : string; units : int }

type run_result = { checksum : string; wall_ns : int64 }

(* ------------------------------------------------------------------ *)
(* Workdirs                                                            *)
(* ------------------------------------------------------------------ *)

(* mkdtemp-style creation (moved here from Fuzz.Oracle): [mkdir] is
   the atomic claim — we retry over randomized names until one
   succeeds, so each task owns a unique workdir with no TOCTOU window.
   The salt is caller-derived (typically a hash of the source being
   compiled), NOT the wall clock: two domains starting in the same
   microsecond used to share a gettimeofday salt and burn retries
   against each other.  The atomic counter alone makes names unique
   within the process; the salt keeps them distinct across processes
   that share a recycled pid. *)
let dir_counter = Atomic.make 0

let fresh_workdir ~salt () =
  let base = Filename.get_temp_dir_name () in
  let pid = Unix.getpid () in
  let salt0 = salt land 0xFFFFFF in
  let rec go attempt =
    if attempt >= 1000 then
      raise (Sys_error "zapnative: cannot create a unique temp directory")
    else begin
      let name =
        Printf.sprintf "zapnative-%d-%d-%06x" pid
          (Atomic.fetch_and_add dir_counter 1)
          ((salt0 + (attempt * 0x9E3779)) land 0xFFFFFF)
      in
      let dir = Filename.concat base name in
      match Sys.mkdir dir 0o700 with
      | () -> dir
      | exception Sys_error _ when not (Sys.file_exists dir) ->
          (* the parent is missing or unwritable: retrying cannot help *)
          raise (Sys_error (Printf.sprintf "zapnative: cannot create %s" dir))
      | exception Sys_error _ -> go (attempt + 1)
    end
  in
  go 0

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      (match Sys.readdir path with
      | entries ->
          Array.iter (fun f -> remove_tree (Filename.concat path f)) entries
      | exception Sys_error _ -> ());
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Compile                                                             *)
(* ------------------------------------------------------------------ *)

let write_and_compile ~dir code =
  if not (Toolchain.available ()) then
    Error { argv = [ "cc"; "--version" ]; status = "exit 127"; detail = "no C compiler on PATH" }
  else begin
    let src = Filename.concat dir "prog.c" in
    Out_channel.with_open_bin src (fun oc ->
        Out_channel.output_string oc (Sir.Emit_c.to_string code));
    let runner = Filename.concat dir "runner" in
    let o = Proc.run (Toolchain.cc_argv () @ [ "-o"; runner; src; "-lm" ]) in
    if Proc.succeeded o then Ok { runner; units = Sir.Emit_c.cluster_count code }
    else
      Error
        {
          argv = o.Proc.argv;
          status = Proc.status_string o.Proc.status;
          detail = (if o.Proc.stderr <> "" then o.Proc.stderr else o.Proc.stdout);
        }
  end

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)
(* ------------------------------------------------------------------ *)

let parse_protocol line =
  match String.split_on_char ' ' (String.trim line) with
  | [ checksum; ns ] when String.length checksum = 16 -> (
      match Int64.of_string_opt ns with
      | Some wall_ns -> Some { checksum; wall_ns }
      | None -> None)
  | _ -> None

let run_exe runner =
  let o = Proc.run [ runner ] in
  if not (Proc.succeeded o) then
    Error
      {
        argv = o.Proc.argv;
        status = Proc.status_string o.Proc.status;
        detail = (if o.Proc.stderr = "" then "compiled program crashed" else o.Proc.stderr);
      }
  else
    let line =
      match String.split_on_char '\n' o.Proc.stdout with
      | first :: _ -> first
      | [] -> ""
    in
    match parse_protocol line with
    | Some r -> Ok r
    | None ->
        Error
          {
            argv = o.Proc.argv;
            status = Proc.status_string o.Proc.status;
            detail = Printf.sprintf "bad runner protocol line %S" line;
          }

let run_once ~salt code =
  let dir = fresh_workdir ~salt () in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      Result.bind (write_and_compile ~dir code) (fun b -> run_exe b.runner))
