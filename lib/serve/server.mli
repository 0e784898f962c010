(** The [sempe-sim serve] daemon: a long-running simulation service.

    Connections are handled by the {!Wire} listener, which defines the
    protocol envelope and the control ops; the simulations themselves
    run on a {!Sempe_util.Pool} of worker domains, so a connection is
    cheap and the expensive work is bounded by the pool size. The daemon
    answers each workload request with {!Api.perform}'s document, or a
    [timeout] or [failed] error.

    Two content-addressed caches back the service: response bytes keyed
    by {!Api.cache_key}, and sampling checkpoint plans keyed by
    {!Api.plan_key} — a repeated sweep neither re-simulates nor re-runs
    the fast-forward pass. Every entry records the wall seconds its
    {!Api.perform} took, and eviction is cost-aware ({!Cache}): the cache
    keeps the entries that are most expensive to recompute. Identical
    in-flight requests coalesce onto one execution.

    With a [store_dir], the daemon persists both caches: a graceful
    shutdown flushes them through {!Persist} and the next start reloads
    the store, so a restarted shard answers warm — and, because the store
    holds the exact rendered response bytes, byte-identically — from its
    first request.

    Security note: the daemon fully trusts its clients. Frames are
    length-capped and parsed with the strict reader, so a malformed or
    truncated frame cannot wedge the server — but any client that can
    connect can run simulations, read statistics and shut the daemon
    down. Bind the unix socket in a directory with appropriate
    permissions; do not expose the TCP listener beyond the host. *)

type addr = Wire.addr = Unix_sock of string | Tcp of string * int

type config = {
  workers : int;  (** simulation pool size *)
  result_entries : int;  (** response cache capacity *)
  plan_entries : int;  (** checkpoint-plan cache capacity *)
  timeout_s : float;  (** per-request reply deadline; [0.] = none *)
  max_connections : int;  (** concurrent connections; excess get [busy] *)
  store_dir : string option;
      (** persistent cache store: reloaded on start, flushed on graceful
          shutdown; [None] (the default) serves memory-only *)
  verbose : bool;  (** per-request log lines on stderr *)
}

val default_config : config

type t

val start : ?config:config -> addr -> t
(** Bind, listen and serve ({!Wire.listen}). Returns once the listener
    is live (a client connecting after [start] returns will not get a
    connection refusal).
    @raise Unix.Unix_error when the address cannot be bound. *)

val addr : t -> addr

val request_stop : t -> unit
(** Ask the daemon to stop; safe from signal handlers and handler
    threads. The shutdown itself happens in {!wait} / {!stop}. *)

val stop : t -> unit
(** Graceful shutdown ({!Wire.stop}), then drain the pool and — when
    configured with a [store_dir] — flush both caches to disk.
    Idempotent. *)

val wait : t -> unit
(** Block until {!request_stop} (e.g. from a signal handler or a client's
    [shutdown] op), then run {!stop}. *)

val stats_json : t -> Sempe_obs.Json.t
(** The daemon's counters, as served by the [stats] op: request/reply
    totals, cache hits/misses/evictions and cost accounting for both
    caches, entries reloaded from the persistent store
    ([disk_loaded_results] / [disk_loaded_plans]), coalesced and executed
    requests, connection counts and request latency percentiles. *)
