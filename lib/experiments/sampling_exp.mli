(** Validation grid for the sampled-simulation engine: every workload is
    simulated once in full (the reference cycle count) and once per
    coverage level with {!Sempe_sampling.Sampling}, and the table reports
    the relative error, whether the reference landed inside the sampler's
    error band, and the wall-clock speedup.

    The grid covers the djpeg formats (at a reduced block count so the
    full reference runs stay affordable) plus one microbenchmark chain,
    all under the SeMPE scheme. Workloads fan out through {!Batch};
    within a job the sampler runs with [workers:1], so the grid is
    deterministic apart from the wall-clock columns. *)

type cell = {
  workload : string;
  coverage : float;
  full_cycles : int;  (** reference: full detailed simulation *)
  full_s : float;  (** wall-clock seconds of the full run *)
  estimate : Sempe_sampling.Sampling.estimate;
  sampled_s : float;  (** wall-clock seconds of the sampled run *)
}

val error : cell -> float
(** |estimate - full| / full. *)

val in_bound : cell -> bool
(** Whether the full run's cycle count lies inside the sampler's band. *)

val speedup : cell -> float
(** [full_s /. sampled_s]; NaN if the sampled run was too fast to time. *)

val collect : unit -> cell list
(** Run the grid: coverages 5/10/25%, 2k warmup, 32 djpeg blocks. Each
    workload's interval is sized from its dynamic instruction count (~40
    intervals per run) so the smaller workloads still measure enough
    intervals for a meaningful band. *)

val render : cell list -> string
val csv : cell list -> string
val to_json : cell list -> Sempe_obs.Json.t
