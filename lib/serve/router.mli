(** The [sempe-sim router] front end: one address for a fleet of
    [serve] shards.

    The router speaks the same framed JSON protocol as a shard, through
    the same {!Wire} listener (which defines the envelope and the
    control ops), and is a drop-in replacement for one from a client's point of view: workload
    requests are consistent-hashed by {!Api.route_key} onto a shard and
    the original frame bytes relayed verbatim both ways, so the reply is
    byte-for-byte what that shard produced (and therefore byte-identical
    to the batch CLI, at any shard count). Identical requests always
    land on the same shard, keeping the per-shard caches and request
    coalescing as effective as a single daemon's.

    Placement uses a consistent-hash ring ({!Ring}) with virtual nodes:
    adding or removing one shard remaps only ~1/N of the keyspace.
    Each forward gets a fresh connection and is retried with doubling
    backoff on refusal, hangup or a framing error; a shard that
    exhausts its retries is marked dead and the request fails over to
    the next shard clockwise on the ring (losing only cache warmth,
    never correctness); when no shard can serve it, the client gets an
    [unavailable] error. A health thread pings dead shards back into
    rotation.

    Control ops are fleet-level: [ping] answers locally, [stats]
    reports routing counters plus the fleet's summed result-cache
    hits/misses (so {!Loadgen} computes hit rates against a router
    unchanged), and [shutdown] performs a graceful fleet drain — every
    shard finishes in-flight work, flushes its persistent store and
    exits, then the router follows. *)

(** The consistent-hash ring, exposed for property tests: assignment is
    a pure function of the key and the shard count. *)
module Ring : sig
  type t

  val default_replicas : int
  (** Virtual nodes per shard (128): enough that the largest shard arc
      stays within a few percent of fair share. *)

  val create : ?replicas:int -> int -> t
  (** [create n] builds the ring for shards [0 .. n-1].
      @raise Invalid_argument if [n < 1] or [replicas < 1]. *)

  val shards : t -> int

  val assign : t -> int list -> int
  (** The shard owning a key (a {!Api.route_key} digest list). *)

  val order : t -> int list -> int list
  (** All shards in failover order for a key: {!assign} first, then
      each next distinct shard clockwise. Every shard index appears
      exactly once. *)
end

type config = {
  replicas : int;  (** virtual nodes per shard on the ring *)
  retries : int;  (** connection attempts per shard before failover *)
  backoff_s : float;  (** delay before the first retry; doubles *)
  health_period_s : float;  (** dead-shard ping interval *)
  verbose : bool;  (** routing decisions and shard state on stderr *)
}

val default_config : config

type t

val start : ?config:config -> shards:Wire.addr list -> Wire.addr -> t
(** Bind [address] and route to [shards] (all initially presumed
    alive). Returns once the listener is live; client connections are
    limited as the daemon's are by default
    ({!Server.default_config}[.max_connections]).
    @raise Invalid_argument on an empty shard list.
    @raise Unix.Unix_error when the address cannot be bound. *)

val addr : t -> Wire.addr

val request_stop : t -> unit
(** Ask the router to stop; safe from signal handlers. The shutdown
    itself happens in {!wait} / {!stop}. Does not touch the shards —
    use {!drain_fleet} first for a full fleet shutdown. *)

val drain_fleet : t -> unit
(** Send every shard a [shutdown] op (best-effort, synchronous): each
    shard drains its in-flight work, flushes its store and exits. The
    client-visible [shutdown] op does exactly this before stopping the
    router. *)

val stop : t -> unit
(** Graceful shutdown of the router itself: stop accepting, let
    in-flight forwards finish and reply, join every thread. Idempotent. *)

val wait : t -> unit
(** Block until {!request_stop} (e.g. from a signal handler or a
    client's [shutdown] op), then run {!stop}. *)

val stats_json : t -> Sempe_obs.Json.t
(** The router's counters, as served by the [stats] op: totals for
    requests, forwards, retries, failovers and errors; per-shard
    address / liveness / forward counts; and the fleet's summed
    result-cache hits and misses (queried live from each live shard). *)
