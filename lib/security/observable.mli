(** Attacker-visible observables of one execution.

    The threat model (§III) grants the attacker coarse timing, shared-cache
    state (prime+probe), branch-predictor state, and knowledge of the
    victim's code. A {!view} condenses everything such an attacker could
    compare across runs; the leakage detector declares a channel leaky when
    the view component differs across secrets. Digests are order-dependent
    FNV-style hashes kept in independent pairs, so any difference in the
    underlying sequence shows up and a single-hash collision cannot mask
    one. *)

type recorder
(** Streams over the committed-µop events of a run. *)

val recorder : unit -> recorder
val feed : recorder -> Sempe_pipeline.Uop.event -> unit

type view = {
  cycles : int;          (** end-to-end time (timing channel) *)
  instructions : int;
  pc_digest : int;
  pc_digest2 : int;      (** independent second digest of the same stream *)
  addr_digest : int;
  addr_digest2 : int;
  mem_ops : int;         (** length of the access-pattern stream *)
  il1_sig : int;         (** instruction-cache content (code-path probe) *)
  dl1_sig : int;
  l2_sig : int;
  bpred_sig : int;       (** predictor + BTB state *)
  il1_accesses : int;
  il1_misses : int;
  dl1_accesses : int;
  dl1_misses : int;
  l2_accesses : int;
  l2_misses : int;
  mispredicts : int;
}

val view : recorder -> Sempe_pipeline.Timing.report -> view
(** Combine the stream digests with the machine-state signatures and
    access/miss counters of the finished run. *)
