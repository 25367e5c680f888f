module Diag = Obs.Diagnostic
module Json = Obs.Json

let max_request_bytes = 1 lsl 20

(* [input_line], reading at most [max_request_bytes] bytes of the line:
   [`Too_long] as soon as one more arrives without a newline. *)
let read_request ic =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | exception End_of_file ->
        if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
    | '\n' -> `Line (Buffer.contents buf)
    | _ when Buffer.length buf >= max_request_bytes -> `Too_long
    | c ->
        Buffer.add_char buf c;
        go ()
  in
  go ()

(* One request/response exchange.  Returns [`Continue] to keep the
   connection, [`Close] on client EOF or after refusing an over-long
   line, [`Shutdown] after acknowledging a shutdown request. *)
let exchange engine ic oc =
  let reply resp =
    output_string oc (Json.to_string (Api.response_to_json resp));
    output_char oc '\n';
    flush oc
  in
  let protocol_error msg =
    Engine.note_protocol_error engine;
    Api.Failed (Diag.error ~phase:"protocol" msg)
  in
  match read_request ic with
  | `Eof -> `Close
  | `Too_long ->
      (* the rest of the line is never read: answer, then drop the
         connection rather than resynchronize on a later newline *)
      reply
        (protocol_error
           (Printf.sprintf "request line longer than %d bytes"
              max_request_bytes));
      `Close
  | `Line line when String.trim line = "" -> `Continue
  | `Line line ->
      let resp, verdict =
        match Api.request_of_line line with
        | Error msg -> (protocol_error msg, `Continue)
        | Ok Api.Shutdown ->
            (Engine.handle engine Api.Shutdown, `Shutdown)
        | Ok req -> (Engine.handle engine req, `Continue)
      in
      reply resp;
      verdict

let serve_connection engine fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match exchange engine ic oc with
    | `Continue -> loop ()
    | (`Close | `Shutdown) as v -> v
  in
  let verdict = try loop () with Sys_error _ -> `Close in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  verdict

let serve ?on_ready ~socket engine =
  (* a client that hangs up before its reply must not kill the daemon:
     with SIGPIPE ignored the write fails with EPIPE, which surfaces as
     [Sys_error] and closes just that connection *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a stale socket file from a dead daemon would make bind fail;
     replacing it is safe because a live daemon would still own the
     listening descriptor *)
  (try if Sys.file_exists socket then Sys.remove socket with Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX socket);
    Unix.listen fd 16
  with
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Diag.errorf ~phase:"serve" "cannot listen on %s: %s" socket
           (Unix.error_message e))
  | () ->
      Option.iter (fun f -> f ()) on_ready;
      let rec accept_loop () =
        match Unix.accept fd with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | client, _ -> (
            match serve_connection engine client with
            | `Shutdown -> ()
            | `Close -> accept_loop ())
      in
      accept_loop ();
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Sys.remove socket with Sys_error _ -> ());
      Ok ()
