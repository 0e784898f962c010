(** Trace-driven out-of-order timing model.

    The functional interpreter feeds committed µops (and SeMPE drain events)
    in program/commit order; the model assigns each µop a fetch, dispatch,
    issue, completion and commit cycle subject to:

    - fetch width, instruction-cache latency and taken-branch fetch breaks;
    - front-end depth, and redirect stalls after branch mispredictions
      (direction from the configured predictor, targets from BTB/RAS);
    - ROB / issue-queue / load-queue / store-queue capacity;
    - operand readiness through architectural register dataflow,
      issue-width and load-port contention, functional-unit latencies;
    - data-cache latency for loads and stores, with store-to-load
      forwarding and memory-dependence ordering on word addresses;
    - in-order commit bounded by retire width;
    - SeMPE pipeline drains: later µops dispatch only after everything
      older has committed plus the SPM transfer cycles of the event.

    Wrong-path instructions are not replayed (standard trace-driven
    methodology); their cost is charged as redirect latency. Secure branches
    never consult the direction predictor (§IV-E). *)

type t

val create :
  ?config:Config.t
  -> ?predictor:Sempe_bpred.Predictor.t
  -> ?warm:Warm.t
  -> ?store_slots:int
  -> ?probe:Probe.t
  -> unit
  -> t
(** [predictor] defaults to a fresh TAGE with the paper's budget.

    [warm] supplies pre-warmed microarchitectural state (caches,
    predictors, BTB/RAS) instead of the cold default — this is how a
    sampled run revives a checkpoint inside a fresh timing model. When
    [warm] is given, [predictor] is ignored (the warm state carries its
    own predictor).

    [store_slots] (rounded up to a power of two, default 4096) sizes the
    direct-mapped ring of in-flight stores used for store-to-load
    forwarding: slot [addr land (slots - 1)] remembers the youngest store
    to a word address mapping there. A collision forgets the older store,
    which can only cost a forwarding opportunity, never corrupt a cycle.
    The default is generous; override only in tests.

    [probe] receives one {!Probe.uop_event} per committed µop and one
    {!Probe.drain_event} per drain. It is passive: attaching a probe
    cannot change any cycle assignment. The feed path is staged at
    [create] into probe-attached and probe-free variants; the attached
    one refills a single event record of each kind for every callback
    (see the reuse contract in {!Probe}), so neither allocates per
    µop. *)

val feed : t -> Uop.event -> unit
(** Process the next event in commit order. *)

val config : t -> Config.t
val hierarchy : t -> Sempe_mem.Hierarchy.t

val warm_state : t -> Warm.t
(** The warmable microarchitectural state the model reads and trains. *)

val current_cycles : t -> int
(** Cycle count of the commit frontier so far ([report.cycles] equals this
    after the last {!feed}); usable mid-run to delimit a measured
    interval. *)

val store_entries : t -> int
(** Number of occupied slots in the store-forwarding ring (for
    memory-bound tests; scans the ring, not a hot-path accessor). *)

(** Aggregated results of a run. *)
type report = {
  instructions : int;
  cycles : int;
  cpi : float;
  cond_branches : int;    (** dynamic non-secure conditional branches *)
  mispredicts : int;
  secure_branches : int;  (** dynamic sJMPs *)
  drains : int;
  spm_cycles : int;
  loads : int;
  stores : int;
  il1_miss_rate : float;
  dl1_miss_rate : float;
  l2_miss_rate : float;
  il1_accesses : int;
  dl1_accesses : int;
  l2_accesses : int;
  il1_misses : int;
  dl1_misses : int;
  l2_misses : int;
  il1_sig : int;   (** content hash of the IL1 after the run *)
  dl1_sig : int;
  l2_sig : int;
  bpred_sig : int; (** predictor + BTB state hash *)
  stall_stack : int array;
      (** CPI stall stack, indexed by {!Stall.index}: every cycle of the
          run attributed to exactly one {!Stall.bucket}. The entries sum
          to [cycles] (asserted by the test suite). *)
}

val report : t -> report
(** Snapshot of the statistics; call after the last {!feed}. *)

val check_report : report -> string list
(** Structural invariants of a well-formed report — the stall stack has
    one entry per {!Stall.bucket}, is non-negative and sums exactly to
    [cycles]; miss counts never exceed access counts and match the
    reported rates; mispredicts never exceed conditional branches; loads
    plus stores never exceed instructions; CPI equals cycles over
    instructions. Returns one message per violation (empty = healthy).
    The differential fuzzer's timing oracle and the test suite both gate
    on this. *)

val predictor_signature : t -> int
(** Hash of branch-predictor + BTB state (the branch-predictor side
    channel). *)

val cache_signature : t -> int
(** Hash of all cache contents (the cache side channel). *)
