(** Client side of the serving protocol ({!Wire}): one framed JSON
    request per call, replies matched by construction (the protocol is
    strictly request/response in order on a connection). *)

module Json = Sempe_obs.Json

type conn

type error = { code : string; message : string }
(** A structured failure: an [error] reply from the daemon, or a local
    ["closed"] / ["protocol"] error when the connection died or the reply
    was malformed. *)

val connect : Wire.addr -> conn
(** @raise Unix.Unix_error when the daemon is not reachable or its host
    does not resolve. *)

val close : conn -> unit
(** Idempotent. *)

val call : conn -> Api.request -> (Json.t, error) result
(** Send one request and block for its reply; [Ok] carries the reply's
    [result] document — the same bytes (once rendered with
    {!Sempe_obs.Json.to_string}) the batch CLI prints for the request. *)

val call_cached : conn -> Api.request -> (Json.t * bool, error) result
(** Like {!call} but also returns the reply's [cached] marker. *)

val ping : conn -> (unit, error) result

val stats : conn -> (Json.t, error) result
(** The front end's counter document (see {!Server.stats_json} and
    {!Router.stats_json}). *)

val shutdown : conn -> (unit, error) result
(** Ask the daemon to stop (it replies before shutting down). *)
