(** Leakage attribution: align per-run {!Witness} streams across secrets
    and localize every divergence.

    {!Leakage} says {e which} channel distinguishes two secrets; this
    module says {e where}. Streams are compared event-by-event against the
    first run (the reference). A stream index is {e divergent} when any
    other run disagrees there (different pc, structure, or detail — or the
    event only exists on one side). Each divergent index is attributed to
    exactly one static PC and one hardware-structure instance, so the
    per-structure counts — the {e leakage stack} — sum to the divergent
    total by construction, mirroring the CPI stall stack's invariant. *)

type divergence = {
  d_index : int;      (** stream event index *)
  d_pc : int;         (** static pc of the diverging event *)
  d_structure : int;  (** structure id; {!Witness.structure_name} decodes *)
  d_cycle : int;      (** commit cycle of that event in its run *)
}

type channel_report = {
  cr_stream : Witness.stream;
  cr_events : int;  (** stream length of the reference (first) run *)
  cr_divergent : int;
  cr_first : divergence option;
  cr_regions : (int * int) list;  (** divergent index ranges, [start, stop) *)
  cr_stack : (int * int) list;
      (** structure id -> divergent events, descending; sums to
          [cr_divergent] *)
  cr_pcs : (int * int) list;  (** pc -> divergent events; same sum *)
}

type t = {
  runs : int;
  instructions : int;  (** committed µops of the reference run *)
  by_channel : channel_report list;  (** one per {!Witness.stream} *)
}

val attribute : Witness.t list -> t
(** Diff every stream of runs 1.. against run 0.
    @raise Invalid_argument on fewer than two witnesses (same rationale as
    {!Leakage.compare_views}). *)

val is_clean : t -> bool
(** No divergent event on any channel: the runs were attacker-
    indistinguishable. *)

val total_divergent : t -> int

val locate : Sempe_isa.Program.t -> int -> string
(** Source-level statement for a static pc via the program's label table
    (nearest preceding label plus offset), e.g. ["sec_t1+2 (pc 14)"]. *)

val render : ?program:Sempe_isa.Program.t -> t -> string
(** Human-readable report: per diverging channel, the first divergence
    (event index, pc / source statement, structure, cycle), the region
    list, the leakage stack table, and per-PC counts. [program] resolves
    pcs to statements via {!locate}. *)

val to_json : ?program:Sempe_isa.Program.t -> t -> Sempe_obs.Json.t

val perfetto_events :
  ?secrets:string list -> t -> Witness.t list -> Sempe_obs.Json.t list
(** Chrome trace events: one lane (thread) per secret spanning its run,
    plus a thread-scoped instant marker at the start of every divergent
    region on each lane that still has the event. [secrets] names the
    lanes; timestamps are commit cycles. *)

val write_perfetto :
  ?secrets:string list -> out_channel -> t -> Witness.t list -> unit
(** Stream {!perfetto_events} as a complete Perfetto JSON document (same
    envelope contract as [Sempe_obs.Sink.perfetto]). *)
