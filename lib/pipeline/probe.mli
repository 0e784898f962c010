(** Timing-model instrumentation hook.

    A probe receives one {!uop_event} per committed µop — carrying the
    full per-stage cycle assignment the timing model computed for it — and
    one {!drain_event} per SeMPE drain. Probes are passive: the model
    never reads anything back, so attaching one cannot perturb a single
    cycle, and [Timing.create] without a probe pays nothing.

    {b Reuse contract.} Each timing model allocates one {!uop_event} and
    one {!drain_event} when it is created with a probe, and refills that
    same record before every callback, so the commit path stays
    allocation-free with a probe attached too. A probe must therefore
    read the fields it needs inside the callback and never keep the
    record (or compare it with a later one) — the same rule {!Uop.t}
    already sets for the µop it carries. Every in-tree consumer
    ({!Sempe_obs} profiles, sinks and trace encoders, and the security
    witness) only reads fields.

    The observability library ({!Sempe_obs}) builds its per-PC profiles
    and Perfetto trace sinks on top of this interface. *)

type uop_event = {
  mutable uop : Uop.t;
  mutable fetch : int;         (** cycle the µop was fetched *)
  mutable dispatch : int;      (** cycle it entered the back end *)
  mutable issue : int;         (** cycle it won an issue port *)
  mutable complete : int;      (** cycle its result was ready *)
  mutable commit : int;        (** cycle it retired *)
  mutable bucket : Stall.bucket;
      (** the constraint that bound this µop's timeline (critical path) *)
  mutable attributed : int;
      (** commit-frontier cycles charged to [bucket] for this µop; the sum
          over a run (plus the base cycle 0) equals the total cycle count *)
  mutable mispredicted : bool; (** this µop caused a front-end redirect *)
  mutable dcache_miss : bool;  (** load whose latency exceeded the pipelined DL1 *)
  mutable il1_line : int;
      (** IL1 line this µop's fetch accessed, or [-1] when it rode the
          previously fetched line (no cache access at all) *)
  mutable fetch_extra : int;
      (** extra fetch latency beyond the pipelined IL1 hit (0 = hit) *)
  mutable mem_extra : int;
      (** extra data-access latency beyond the pipelined DL1 hit for loads
          {e and} stores (0 = DL1 hit, or not a memory µop) *)
}

type drain_event = {
  mutable reason : Uop.drain_reason;
  mutable spm_cycles : int;    (** SPM transfer cycles of this event *)
  mutable start : int;         (** commit frontier when the drain began *)
  mutable resume : int;        (** cycle dispatch may resume *)
}

type t = {
  on_uop : uop_event -> unit;
  on_drain : drain_event -> unit;
}

val null : t
(** Discards every event. *)

val uop_event : unit -> uop_event
(** A blank event for a producer to refill (see the reuse contract). *)

val drain_event : unit -> drain_event
(** A blank drain event for a producer to refill. *)
