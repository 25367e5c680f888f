(* zapd — the persistent compile-and-run daemon.

   Listens on a Unix-domain socket and serves the typed request API
   (Service.Api) as newline-delimited JSON: compile, run, plan, batch,
   stats, shutdown.  It serves one connection at a time, one request
   at a time.  A long-lived zapd amortizes planning across requests
   through the LRU plan cache — the first --plan search for a program
   pays the full beam search, every later request with the
   same (fingerprint, mode, machine, procs) key is a lookup.
   zapc --connect SOCKET is the stock client; protocol grammar and
   operational notes live in docs/zapd.md. *)

open Cmdliner

let main socket capacity jobs native_root quiet =
  let engine = Service.Engine.create ~capacity ~jobs ?native_root () in
  let on_ready () =
    if not quiet then Printf.printf "zapd: listening on %s\n%!" socket
  in
  match Service.Server.serve ~on_ready ~socket engine with
  | Ok () ->
      if not quiet then Printf.printf "zapd: shut down\n%!";
      Ok ()
  | Error d -> Error (`Msg (Obs.Diagnostic.to_string d))

let socket_arg =
  Arg.(
    value & opt string "zapd.sock"
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket to listen on (a stale socket file left by a \
           dead daemon is replaced).")

let capacity_arg =
  Arg.(
    value & opt int 256
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:
          "Plan-cache entries kept; beyond $(docv) the least-recently-used \
           entry is evicted.  Each entry holds one compiled plan, so \
           $(docv) bounds the daemon's memory.")

let jobs_arg =
  Arg.(
    value
    & opt int (Support.Pool.default_domains ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the requests of one batch and for \
           search-planner candidate costing; connections and requests \
           are still served one at a time.  Responses are byte-identical \
           at every $(docv).")

let native_root_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "native-root" ] ~docv:"DIR"
        ~doc:
          "Directory for content-addressed native artifacts (default: a \
           per-user directory under the system temp dir).  Artifacts \
           survive daemon restarts: a re-started zapd re-adopts runners \
           it finds there without invoking $(b,cc).")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet"; "q" ] ~doc:"Suppress the listening/shutdown banner.")

let cmd =
  let doc = "persistent compile-and-run daemon for the zap compiler" in
  Cmd.v
    (Cmd.info "zapd" ~version:"1.0" ~doc)
    Term.(
      term_result ~usage:false
        (const main $ socket_arg $ capacity_arg $ jobs_arg $ native_root_arg
       $ quiet_arg))

let () = exit (Cmd.eval cmd)
