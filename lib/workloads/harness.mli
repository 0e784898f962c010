(** Build-and-run harness: apply a scheme's program transform, compile, set
    up memory, simulate, and read results back. *)

type built = {
  scheme : Sempe_core.Scheme.t;
  ast : Sempe_lang.Ast.program;       (** after the scheme transform *)
  prog : Sempe_isa.Program.t;
  layout : Sempe_lang.Codegen.layout;
}

val transform :
  ?fault:Sempe_core.Exec.fault ->
  Sempe_core.Scheme.t ->
  Sempe_lang.Ast.program ->
  Sempe_lang.Ast.program
(** Baseline strips the secret marks; SeMPE (and SeMPE-on-legacy) applies
    ShadowMemory privatization; CTE / Raccoon / MTO apply their softpath
    transforms.

    [fault] (default [No_fault]) seeds the corresponding protocol bug
    into the ShadowMemory lowering of the SeMPE builds — the fuzzer's
    self-test. [Skip_restore] drops the post-join merges and
    [Skip_nt_restore] lets the fall-through path write the original
    locations; see {!Sempe_lang.Shadow.privatize}. The execution-level
    counterpart (suppressed hardware register restores, see
    {!Sempe_core.Exec}) is architecturally silent for compiled programs
    because the memory-to-memory codegen leaves no register live across
    an eosJMP — the lowering is where the restore protocol is
    observable. *)

val build :
  ?fault:Sempe_core.Exec.fault ->
  Sempe_core.Scheme.t ->
  Sempe_lang.Ast.program ->
  built
(** [transform], then compile. [fault] as in {!transform}. *)

val init_mem_of :
  built
  -> globals:(string * int) list
  -> arrays:(string * int array) list
  -> int array
  -> unit
(** The memory initializer {!run} and {!sample} install the named
    [globals]/[arrays] with — exposed for callers that drive
    {!Sempe_core.Exec} sessions by hand (tests, custom samplers). *)

val stack_reserve_words : int
(** Stack words {!image_words} reserves above the data segment: 4096,
    against a measured maximum depth of 240 words over the curated
    workloads. *)

val image_words : ?machine:Sempe_pipeline.Config.t -> built -> int
(** The memory image {!run} allocates by default: the smallest multiple
    of [S] that holds the program's data segment plus
    {!stack_reserve_words}, where [S] is the largest data-cache set span
    in words of [machine] (default {!Sempe_pipeline.Config.default}),
    [size_bytes / ways / word_bytes] over DL1 and L2 — 16,384 words for
    Table II's L2. The stack starts at the image's last word (see
    {!Sempe_core.Exec.start}), so every stack address stays congruent
    mod [S] to its place in a 2^20-word image: each cache set, prefetch
    decision, store-forwarding slot (the timing model's 4096-slot ring
    divides [S]) and timing report is the same as with the fixed
    image, and the data segment is untouched. The reserve also keeps
    stack lines more than the stream prefetcher's two-line window away
    from data lines, as they are in the large image. A stack deeper than
    the reserve fails with {!Sempe_core.Exec.Stack_exhausted} instead of
    reaching the globals. *)

val run :
  ?machine:Sempe_pipeline.Config.t
  -> ?mem_words:int
  -> ?max_instrs:int
  -> ?forgiving_oob:bool
  -> ?fault:Sempe_core.Exec.fault
  -> ?globals:(string * int) list
  -> ?arrays:(string * int array) list
  -> ?observe:(Sempe_pipeline.Uop.event -> unit)
  -> ?sink:Sempe_obs.Sink.t
  -> built
  -> Sempe_core.Run.outcome
(** Simulates on a fresh machine with the scheme's hardware support.
    [mem_words] defaults to {!image_words}[ ?machine built]; passing it
    is the only override. [globals]/[arrays] initialize named program
    state (secrets, inputs). [forgiving_oob] / [fault] as in
    {!Sempe_core.Run.simulate}; under forgiving mode a wild address is
    clamped modulo the image size, so only in-bounds programs are
    guaranteed image-size independent.
    [sink] attaches an observability sink (see {!Sempe_core.Run.simulate}). *)

val sample :
  ?machine:Sempe_pipeline.Config.t
  -> ?mem_words:int
  -> ?max_instrs:int
  -> ?forgiving_oob:bool
  -> ?fault:Sempe_core.Exec.fault
  -> ?globals:(string * int) list
  -> ?arrays:(string * int array) list
  -> ?config:Sempe_sampling.Sampling.config
  -> ?workers:int
  -> ?plan:Sempe_sampling.Sampling.plan
  -> ?plan_out:(Sempe_sampling.Sampling.plan -> unit)
  -> ?cost_fallback:bool
  -> built
  -> Sempe_sampling.Sampling.estimate
(** Sampled simulation of the same workload setup as {!run} — see
    {!Sempe_sampling.Sampling.estimate}. [mem_words] stays 2^20 by
    default. Checkpoints store absolute stack addresses (sp and the
    indices of nonzero words), and [Marshal] writes small integers in
    fewer bytes, so a sized image would change the reported checkpoint
    sizes and with them the [sample] output. For performance estimates only;
    security experiments need the full runs of {!run}. [plan]/[plan_out]
    revive / record the fast-forward pass's checkpoint plan (the serving
    daemon's checkpoint cache); the caller must key plans by program,
    inputs, and sampling boundary config. *)

val return_value : Sempe_core.Run.outcome -> int
(** [main]'s return value. *)

val read_global : built -> Sempe_core.Run.outcome -> string -> int
val read_array : built -> Sempe_core.Run.outcome -> string -> int array
