(** Figures 8 and 9: the synthetic djpeg across output formats and input
    sizes, SeMPE versus the unprotected baseline.

    Figure 8 reports the execution-time overhead; Figure 9 the IL1 / DL1 /
    L2 miss rates of both machines. One simulation grid feeds both. *)

type cell = {
  format : Sempe_workloads.Djpeg.format;
  size : Sempe_workloads.Djpeg.size;
  base : Sempe_pipeline.Timing.report;
  sempe : Sempe_pipeline.Timing.report;
}

val collect : ?sizes:Sempe_workloads.Djpeg.size list -> unit -> cell list
(** One cell per format and size (default {!Sempe_workloads.Djpeg.sizes}),
    image seed 42. *)

val overhead : cell -> float
(** [sempe cycles / baseline cycles - 1]. *)

val render_fig8 : cell list -> string
val render_fig9 : cell list -> string

val csv : cell list -> string
(** Machine-readable dump: format, size, cycles and miss rates per machine. *)

val to_json : cell list -> Sempe_obs.Json.t
(** One object per cell; the full timing reports of both machines are
    embedded via {!Sempe_obs.Report.to_json}. *)
