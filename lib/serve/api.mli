(** The daemon's request vocabulary and its single execution path.

    Every operation the daemon serves is also a batch CLI invocation.
    {!run} executes a request into a typed {!result}; {!to_json} and
    {!render} are its two views. The CLI prints one of the two, and the
    daemon answers with {!perform} = [to_json (run request)] — so a
    served response is byte-identical to the batch CLI's [--json] stdout
    {e by construction}, and the CLI's text report is computed from the
    very same run. *)

module Json = Sempe_obs.Json
module Scheme = Sempe_core.Scheme
module Sampling = Sempe_sampling.Sampling

type workload = Sempe_workloads.Workload.t =
  | Microbench of { kernel : string; width : int; iters : int; leaf : int }
  | Djpeg of { format : string; blocks : int; seed : int }
  | Rsa of { key : int }
(** The workload vocabulary, its range check, build and inputs live in
    {!Sempe_workloads.Workload}; the constructors are repeated here so
    [Api.Microbench {...}] names the same value. *)

type sample_params = { interval : int; coverage : float; warmup : int }

type request =
  | Simulate of { scheme : Scheme.t; workload : workload; strict_oob : bool }
      (** full detailed simulation — [sempe-sim microbench/djpeg/rsa --json] *)
  | Sample of {
      scheme : Scheme.t;
      workload : workload;
      strict_oob : bool;
      params : sample_params;
    }  (** sampled simulation — [sempe-sim <workload> --sample --json] *)
  | Profile of { scheme : Scheme.t; workload : workload; top : int }
      (** per-PC profile — [sempe-sim profile --json] *)
  | Leakage  (** the §IV-A security matrix — [sempe-sim leakage --json] *)
  | Fuzz_smoke of { seed : int; count : int }
      (** a corpus-less differential-fuzz round —
          [sempe-sim fuzz --seed S --count N --no-corpus --json] *)

(** What a request computed, before it is rendered. *)
type result =
  | Simulated of {
      scheme : Scheme.t;
      workload : workload;
      outcome : Sempe_core.Run.outcome;
      baseline : Sempe_core.Run.outcome option;
          (** microbench: the unprotected run the slowdown is measured
              against *)
    }
  | Sampled of {
      scheme : Scheme.t;
      workload : workload;
      estimate : Sampling.estimate;
    }
  | Profiled of {
      scheme : Scheme.t;
      workload : workload;
      top : int;
      report : Sempe_pipeline.Timing.report;
      profile : Sempe_obs.Profile.t;
      program : Sempe_isa.Program.t;  (** resolves profiled pcs to text *)
    }
  | Leakage_matrix of Sempe_experiments.Security_exp.result list
  | Fuzzed of {
      config : Sempe_fuzz.Fuzz.config;
      outcome : Sempe_fuzz.Fuzz.outcome;
    }

val run :
  ?workers:int ->
  ?plan:Sampling.plan ->
  ?plan_out:(Sampling.plan -> unit) ->
  request ->
  result
(** Execute one request. Deterministic: the result's views are
    byte-identical at any [workers] (which only bounds the inner
    measurement parallelism of [Sample] and the fuzz pool of
    [Fuzz_smoke]). [plan]/[plan_out] revive / record a [Sample]
    request's checkpoint plan (ignored for the other requests) — see
    {!Sempe_sampling.Sampling.estimate}.

    @raise Invalid_argument on a workload
    {!Sempe_workloads.Workload.check} rejects (the strict decoder
    {!request_of_json} and the CLI reject those earlier, so neither the
    daemon nor a batch run gets this far). *)

val to_json : result -> Json.t
(** The machine-readable view: the document [sempe-sim ... --json]
    prints and the daemon serves. *)

val render : result -> string
(** The text view: what the matching [sempe-sim] subcommand prints
    without [--json]. *)

val perform :
  ?workers:int ->
  ?plan:Sampling.plan ->
  ?plan_out:(Sampling.plan -> unit) ->
  request ->
  Json.t
(** [to_json (run request)]: the daemon's entry point. *)

val request_to_json : request -> Json.t
(** Canonical wire form: an object carrying ["op"] plus the operation's
    parameters, every field explicit (no defaults elided) — the canonical
    form is what {!cache_key} digests, so two spellings of the same
    request share a cache entry. *)

val request_of_json : Json.t -> (request, string) Stdlib.result
(** Strict decode of a wire object: unknown ["op"], missing or
    mistyped fields, workloads {!Sempe_workloads.Workload.check} rejects
    and out-of-range sampling parameters are all [Error] with a message
    naming the offending field. Unknown {e extra} fields are ignored
    (forward compatibility). *)

val digests : string -> int * int
(** Two independent FNV digests of a string — the primitive behind
    {!cache_key}, {!plan_key} and {!route_key}, also used by the
    {!Router}'s hash ring for its virtual-node points. Strings that
    collide under one digest have no reason to collide under the other. *)

val route_key : request -> int list
(** Partition key for the sharded fleet: the two digests of the
    canonical request JSON, nothing else. Cheap to compute (no program
    build), and identical requests always map to the same shard — so
    coalescing and both shard-local caches still see every repeat of a
    request on one process. Distinct from {!cache_key}, which also
    fingerprints the compiled program image and guards the response
    cache itself. *)

val cache_key : request -> int list
(** Content address of a request's response: two independent FNV digests
    of the canonical request JSON plus two of the compiled program image
    (via [Marshal]) for workload-bearing requests. A response may be
    reused exactly when all four digests match, so a single unlucky hash
    collision cannot alias two different requests. *)

val plan_key : request -> int list option
(** Content address of the checkpoint plan a [Sample] request's
    fast-forward pass produces — [None] for every other request. Unlike
    {!cache_key} it excludes [coverage] and digests the derived sampling
    stride instead, so any coverage that selects the same interval set
    reuses the same plan. *)
