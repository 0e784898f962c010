(** The paper's workloads as values: the one place that knows how a
    workload is named, range-checked, compiled under a scheme and given
    its inputs.

    SeMPE's evaluation (§V–VI) runs three workloads under every scheme:
    the Figure-7 nested-chain microbenchmarks, djpeg and RSA modexp.
    Every run in the experiments, the CLI, the serving daemon and the
    benchmark harness is a {!t}, built by {!build} and started from
    {!inputs}. *)

type t =
  | Microbench of { kernel : string; width : int; iters : int; leaf : int }
      (** the Figure-7 nested chain ({!Microbench}); [kernel] is a
          {!Kernels} name, [leaf] the path the secrets select (1-based,
          [width + 1] is the final else) *)
  | Djpeg of { format : string; blocks : int; seed : int }
      (** {!Djpeg}; [format] is PPM, GIF or BMP (case-insensitive) *)
  | Rsa of { key : int }  (** {!Rsa} modexp with secret exponent [key] *)

val check : t -> (t, string) result
(** The one range check on a workload, shared by the daemon's request
    decoder and the CLI: the kernel or djpeg format must exist, [width],
    [iters] and [blocks] must be positive, [leaf] must lie in
    [1..width+1] and [key] must fit in {!Rsa.key_bits} bits. The error
    names the offending field. [Ok] carries the canonical spelling
    (upper-case djpeg format). *)

val kernel_named : string -> Kernels.t
(** @raise Invalid_argument on a name {!Kernels.by_name} does not know. *)

val format_named : string -> Djpeg.format
(** Case-insensitive. @raise Invalid_argument on an unknown format. *)

val build : Sempe_core.Scheme.t -> t -> Harness.built
(** The workload's program under the scheme's transform, compiled. The
    software schemes (CTE, Raccoon, MTO) get the constant-time kernel
    variants, since their transforms would not terminate on
    data-dependent loops. A djpeg program does not depend on [blocks] or
    [seed], nor an RSA program on [key]. *)

val inputs : t -> (string * int) list * (string * int array) list
(** The named globals (secrets) and arrays a run of the workload starts
    from. *)

val run :
  ?machine:Sempe_pipeline.Config.t ->
  ?forgiving_oob:bool ->
  ?observe:(Sempe_pipeline.Uop.event -> unit) ->
  ?sink:Sempe_obs.Sink.t ->
  Harness.built ->
  t ->
  Sempe_core.Run.outcome
(** [run built w] is {!Harness.run} of [built] started from [inputs w].
    [built] is usually [build scheme w]; it may also be a program the
    inputs fit, such as one djpeg build serving every block count. *)

val describe : t -> string
(** One-line description, e.g. ["rsa key=0x1234"]. *)
