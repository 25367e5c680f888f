type artifact = { key : string; runner : string; units : int; compiler : string }

type stats = { builds : int; reuses : int }

type t = {
  root : string;
  lock : Mutex.t;
  settled : Condition.t;  (* broadcast whenever a building key is released *)
  memo : (string, artifact) Hashtbl.t;
  building : (string, unit) Hashtbl.t;
  built : int Atomic.t;
  reused : int Atomic.t;
}

let default_root () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "zap-native-store-%d" (Unix.getuid ()))

let create ?root () =
  {
    root = (match root with Some r -> r | None -> default_root ());
    lock = Mutex.create ();
    settled = Condition.create ();
    memo = Hashtbl.create 32;
    building = Hashtbl.create 8;
    built = Atomic.make 0;
    reused = Atomic.make 0;
  }

let root t = t.root

let stats t = { builds = Atomic.get t.built; reuses = Atomic.get t.reused }

let store_error detail =
  Error { Build.argv = []; status = "-"; detail = "store: " ^ detail }

let ensure_root t =
  if not (Sys.file_exists t.root) then
    try Sys.mkdir t.root 0o700 with
    | Sys_error _ when Sys.file_exists t.root -> ()

(* the content address: the emitted C + compile command + toolchain.
   A compiler upgrade changes the key, so stale binaries built by an
   older cc are never adopted. *)
let content_key source =
  let h = Support.Hash64.mix_string Support.Hash64.empty source in
  let h = Support.Hash64.mix_string h (String.concat "\x00" (Toolchain.cc_argv ())) in
  let h = Support.Hash64.mix_string h (Toolchain.describe ()) in
  Support.Hash64.to_hex h

let tmp_counter = Atomic.make 0

(* [<root>/<prefix>-<pid>-<n>]: a name no other call of any process
   picks *)
let private_dir t prefix =
  Filename.concat t.root
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ())
       (Atomic.fetch_and_add tmp_counter 1))

let meta_line () = Toolchain.describe () ^ "\n"

(* An artifact directory is adopted only when its [meta] names this
   toolchain and its [runner] is a non-empty regular file. *)
let sound dir =
  match
    ( In_channel.with_open_bin (Filename.concat dir "meta") In_channel.input_all,
      Unix.stat (Filename.concat dir "runner") )
  with
  | meta, { Unix.st_kind = Unix.S_REG; st_size; _ } ->
      meta = meta_line () && st_size > 0
  | _ -> false
  | exception (Sys_error _ | Unix.Unix_error _) -> false

(* The runner for [key]: adopted from disk, or compiled in a private
   temp dir and published by an atomic rename — [true] when this call
   compiled.  A directory at [key] that is not sound is first moved
   aside to [<root>/unsound-...] (a concurrent process may have moved
   it already).  A concurrent process that wins the rename is adopted.
   Raises [Sys_error] when the root or the temp dir is unusable. *)
let fetch t key code =
  let final = Filename.concat t.root key in
  let runner = Filename.concat final "runner" in
  ensure_root t;
  if sound final then Ok (runner, false)
  else begin
    (match Unix.rename final (private_dir t ("unsound-" ^ key)) with
    | () | (exception Unix.Unix_error (Unix.ENOENT, _, _)) -> ()
    | exception Unix.Unix_error (e, _, _) ->
        raise
          (Sys_error
             (Printf.sprintf "cannot move aside unsound artifact %s: %s" key
                (Unix.error_message e))));
    let tmp = private_dir t "tmp" in
    Sys.mkdir tmp 0o700;
    Fun.protect ~finally:(fun () -> Build.remove_tree tmp) @@ fun () ->
    Result.bind (Build.write_and_compile ~dir:tmp code) @@ fun _ ->
    Out_channel.with_open_bin (Filename.concat tmp "meta") (fun oc ->
        Out_channel.output_string oc (meta_line ()));
    match Unix.rename tmp final with
    | () -> Ok (runner, true)
    | exception Unix.Unix_error _ when Sys.file_exists final -> Ok (runner, true)
    | exception Unix.Unix_error (e, _, _) ->
        store_error
          (Printf.sprintf "cannot publish artifact %s: %s" key
             (Unix.error_message e))
  end

let get t (code : Sir.Code.program) =
  let key = content_key (Sir.Emit_c.to_string code) in
  (* the memoized artifact, or [None] once this caller has claimed the
     build of [key]; a get that finds [key] being built waits for it *)
  let rec claim () =
    match Hashtbl.find_opt t.memo key with
    | Some _ as a -> a
    | None when Hashtbl.mem t.building key ->
        Condition.wait t.settled t.lock;
        claim ()
    | None ->
        Hashtbl.replace t.building key ();
        None
  in
  match Mutex.protect t.lock claim with
  | Some a ->
      Atomic.incr t.reused;
      Ok (a, false)
  | None -> (
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect t.lock (fun () ->
              Hashtbl.remove t.building key;
              Condition.broadcast t.settled))
      @@ fun () ->
      match fetch t key code with
      | exception Sys_error m -> store_error m
      | Error _ as e -> e
      | Ok (runner, fresh) ->
          let a =
            {
              key;
              runner;
              units = Sir.Emit_c.cluster_count code;
              compiler = Toolchain.describe ();
            }
          in
          Mutex.protect t.lock (fun () -> Hashtbl.replace t.memo key a);
          Atomic.incr (if fresh then t.built else t.reused);
          Ok (a, fresh))
