(** The client side of the wire: what [zapc --connect] speaks.

    One call, one exchange — connect, send the request line, read the
    response line, close.  All transport and protocol failures come
    back as diagnostics (phase ["connect"]), so the CLI reports a dead
    daemon exactly like any other error.  A request whose line is
    longer than {!Server.max_request_bytes} is refused before
    connecting, with the [protocol] diagnostic the daemon would send.
    The call ignores SIGPIPE for the process, so a daemon that hangs up
    mid-request is an error ("Broken pipe"), not a signal. *)

val roundtrip :
  socket:string -> Api.request -> (Api.response, Obs.Diagnostic.t) result
