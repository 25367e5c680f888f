type artifact = { key : string; runner : string; units : int; compiler : string }

type stats = { builds : int; reuses : int }

type t = {
  root : string;
  lock : Mutex.t;
  memo : (string, artifact) Hashtbl.t;
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
    memo = Hashtbl.create 32;
    built = Atomic.make 0;
    reused = Atomic.make 0;
  }

let root t = t.root

let stats t = { builds = Atomic.get t.built; reuses = Atomic.get t.reused }

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

let publish ~tmp ~final =
  match Unix.rename tmp final with
  | () -> true
  | exception Unix.Unix_error _ ->
      (* a concurrent builder won the rename: adopt its artifact *)
      Build.remove_tree tmp;
      Sys.file_exists final

let get t (code : Sir.Code.program) =
  let key = content_key (Sir.Emit_c.to_string code) in
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.memo key) with
  | Some a ->
      Atomic.incr t.reused;
      Ok (a, false)
  | None -> (
      ensure_root t;
      let final = Filename.concat t.root key in
      let runner = Filename.concat final "runner" in
      let adopt ~fresh =
        let a =
          {
            key;
            runner;
            units = Sir.Emit_c.cluster_count code;
            compiler = Toolchain.describe ();
          }
        in
        Mutex.protect t.lock (fun () ->
            if not (Hashtbl.mem t.memo key) then Hashtbl.add t.memo key a);
        Atomic.incr (if fresh then t.built else t.reused);
        Ok (a, fresh)
      in
      if Sys.file_exists runner then adopt ~fresh:false
      else
        let tmp =
          Filename.concat t.root
            (Printf.sprintf "tmp-%d-%d" (Unix.getpid ())
               (Atomic.fetch_and_add tmp_counter 1))
        in
        match Sys.mkdir tmp 0o700 with
        | exception Sys_error m ->
            Error { Build.argv = []; status = "-"; detail = "store: " ^ m }
        | () -> (
            match Build.write_and_compile ~dir:tmp code with
            | Error e ->
                Build.remove_tree tmp;
                Error e
            | Ok _ ->
                Out_channel.with_open_bin (Filename.concat tmp "meta")
                  (fun oc ->
                    Out_channel.output_string oc (Toolchain.describe () ^ "\n"));
                if publish ~tmp ~final then adopt ~fresh:true
                else
                  Error
                    {
                      Build.argv = [];
                      status = "-";
                      detail =
                        Printf.sprintf "store: cannot publish artifact %s" key;
                    }))
