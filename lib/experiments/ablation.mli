(** Ablations of the design choices called out in §IV-F and §IV-E, all
    on the Fibonacci chain:

    - SPM throughput: how the snapshot-transfer bandwidth (Table II:
      64 B/cycle) moves SeMPE's overhead, at 8 to 256 bytes per cycle;
    - ArchRS vs PhyRS: the paper rejects physical-register snapshots
      because saving the full physical file and RAT per SecBlock moves an
      order of magnitude more state; we recompute SeMPE's cycles with the
      PhyRS transfer volume (512 registers + RAT share) substituted for
      the ArchRS one;
    - jbTable capacity: the deepest supported nesting equals the number of
      entries, and exceeding it raises the architectural overflow
      exception ({!Sempe_core.Jbtable.Overflow}), for 2 to 30 entries;
    - pipeline-drain sensitivity: the front-end refill depth (4 to 24)
      scales the cost of the three drains per SecBlock. *)

type measurements = {
  spm : (int * float) list;  (** (bytes per cycle, SeMPE slowdown) *)
  snapshot : (string * float) list;  (** (mechanism, SeMPE slowdown) *)
  jbtable : (int * int) list;  (** (entries, deepest nesting completing) *)
  drain : (int * float) list;  (** (front-end depth, SeMPE slowdown) *)
}

val measure : unit -> measurements
(** Run all four ablations. *)

val render : measurements -> string
(** Format the measurements as the four text tables. *)

val to_json : measurements -> Sempe_obs.Json.t
(** The measurements as one object with a list per ablation. *)
