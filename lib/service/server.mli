(** The [zapd] daemon loop: newline-delimited JSON over a Unix-domain
    socket.

    Protocol (grammar in docs/zapd.md): the client sends one
    {!Api.request} as a single JSON line; the server answers with one
    {!Api.response} line.  A connection may carry any number of
    request/response exchanges; it ends when the client closes or
    after a [Shutdown] is acknowledged.  Lines that fail to parse get
    a [Failed] reply (phase ["protocol"]) and bump
    ["service.protocol.error"]; the connection stays open.  A line
    longer than {!max_request_bytes} gets the same reply as soon as
    its first byte past the cap arrives, and its connection is then
    closed: the daemon never buffers more than that of one request.

    Connections are accepted and served one at a time — [zapc
    --connect] holds a connection only for the duration of one
    exchange, and intra-request parallelism (batches, search costing)
    already uses the engine's domain pool.  Serial accept is also what
    keeps the daemon's observable behavior independent of client
    arrival order. *)

val max_request_bytes : int
(** The longest request line read: 1 MiB, far above any legitimate
    request (the largest suite source is 6.2 KB). *)

val serve :
  ?on_ready:(unit -> unit) ->
  socket:string ->
  Engine.t ->
  (unit, Obs.Diagnostic.t) result
(** Bind [socket] (an existing stale socket file is replaced), then
    accept/serve until a [Shutdown] request is acknowledged; the
    socket file is unlinked on the way out.  SIGPIPE is ignored for the
    whole process, so a client that hangs up before reading its reply
    only ends its own connection.  [on_ready] fires once the
    listener is accepting (tests and the daemon's "listening" banner
    hook here). *)
