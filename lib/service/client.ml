module Diag = Obs.Diagnostic
module Json = Obs.Json

let roundtrip ~socket req =
  (* a daemon that hangs up while we are still writing must not kill
     us: with SIGPIPE ignored the write fails with EPIPE, which
     surfaces as [Sys_error] and is reported as a diagnostic *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let request = Json.to_string (Api.request_to_json req) in
  (* the daemon would refuse this line after its first byte past the
     cap and hang up while we are still writing the rest *)
  if String.length request > Server.max_request_bytes then
    Error
      (Diag.errorf ~phase:"protocol" "request line longer than %d bytes"
         Server.max_request_bytes)
  else
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Diag.errorf ~phase:"connect" "cannot connect to %s: %s" socket
             (Unix.error_message e))
    | () -> (
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let finish r =
          (try Unix.close fd with Unix.Unix_error _ -> ());
          r
        in
        match
          output_string oc request;
          output_char oc '\n';
          flush oc;
          input_line ic
        with
        | exception End_of_file ->
            finish
              (Error
                 (Diag.errorf ~phase:"connect"
                    "connection to %s closed before a response arrived" socket))
        | exception Sys_error m -> finish (Error (Diag.error ~phase:"connect" m))
        | line ->
            finish
              (match Json.of_string line with
              | Error m ->
                  Error
                    (Diag.errorf ~phase:"connect" "bad response line: %s" m)
              | Ok j -> (
                  match Api.response_of_json j with
                  | Error m ->
                      Error
                        (Diag.errorf ~phase:"connect" "bad response: %s" m)
                  | Ok resp -> Ok resp)))
