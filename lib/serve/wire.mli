(** The wire layer shared by both front ends — the [serve] daemon
    ({!Server}) and the fleet [router] ({!Router}): addresses, sockets,
    and the listener that speaks the protocol.

    {b The protocol.} Each connection carries {!Frame}s in both
    directions, one JSON document per frame, strictly one reply per
    request, in order. A request is a JSON object
    [{"id": .., "op": .., ...}]: a workload op (the fields of
    {!Api.request_of_json}) or one of the control ops [ping], [stats]
    and [shutdown]. Every reply echoes an integer ["id"] when the request
    carried one, and is either

    - [{"id": .., "ok": true, "cached": .., "result": ..}] or
    - [{"id": .., "ok": false, "error": {"code": .., "message": ..}}].

    Error codes raised here: [bad-frame] (oversized or truncated frame;
    the connection is then closed, since a half-read stream cannot be
    resynchronized), [bad-json] (the strict JSON reader rejected the
    payload), [bad-request] (not an object, unknown op or bad fields) and
    [busy] (the connection limit was reached; sent once, then the
    connection is closed). The front ends add their own codes: the
    daemon [timeout] and [failed], the router [unavailable].

    The listener runs one accept thread plus one handler thread per
    connection. It answers [ping] (["pong"]), [stats] and [shutdown]
    ([true], then it stops) itself. *)

module Json = Sempe_obs.Json

(** {1 Addresses and sockets} *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** [unix:PATH], [tcp:HOST:PORT], or a bare path (taken as a unix
    socket). *)

val addr_to_string : addr -> string

val connect : addr -> Unix.file_descr
(** A connected socket. Also ignores [SIGPIPE], so a peer hanging up
    mid-write surfaces as [EPIPE] rather than killing the process.
    @raise Unix.Unix_error when the peer is not reachable or its host
    does not resolve. *)

val exchange : addr -> string -> (string, string) result
(** [exchange addr payload] sends one frame on a fresh connection and
    returns the payload of the one frame that comes back, closing the
    connection either way. [Error] describes a refused connection, an
    early hangup or a framing error; it never raises. *)

(** {1 The listener} *)

type reply =
  | Ok_reply of Json.t * bool  (** [result], [cached] *)
  | Error_reply of string * string  (** [code], [message] *)
  | Relay of string
      (** a complete reply document, written verbatim (the router's
          relay of a shard's reply bytes) *)

type t

val listen : max_connections:int -> addr -> t
(** Bind and listen on [addr]: a crash-leftover unix socket file is
    replaced, a TCP listener gets [SO_REUSEADDR]. Connections queue in
    the kernel until {!serve} starts accepting them; beyond
    [max_connections] concurrent ones, a connection gets the [busy]
    reply.
    @raise Unix.Unix_error when the address cannot be bound or its host
    does not resolve. *)

val serve :
  t ->
  stats:(unit -> Json.t) ->
  ?on_shutdown:(unit -> unit) ->
  ?on_stop:(unit -> unit) ->
  (Api.request -> string -> reply) ->
  unit
(** Start the accept thread. [handle req payload] answers a decoded
    workload request, given its raw frame bytes too. [stats ()] is the
    [stats] op's [result]. [on_shutdown] runs before the [shutdown] op
    replies; [on_stop] runs once, at the end of {!stop}. *)

val addr : t -> addr

val stats_fields : t -> (string * Json.t) list
(** The listener's counters, for a front end's [stats] document:
    [requests] (frames received), [ok] ([ok:true] and relayed replies),
    [errors] ([ok:false] replies, [busy] excluded), [connections]
    ([accepted], [rejected] as [busy], [active]), [in_flight] (received,
    not yet replied to), [max_in_flight] and [latency_s]
    (receive-to-reply seconds: [count], [mean], [p50], [p95], [p99],
    [max]). *)

val request_stop : t -> unit
(** Ask the listener to stop; safe from signal handlers and handler
    threads. The shutdown itself happens in {!wait} / {!stop}. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting and remove a unix socket file, let
    in-flight requests finish and reply (for at most 600 s), wake idle
    connections, join every handler thread, then run [on_stop].
    Idempotent. *)

val wait : t -> unit
(** Block until {!request_stop} (e.g. from a signal handler or a
    client's [shutdown] op), then run {!stop}. *)
