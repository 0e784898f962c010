(** §IV-A / §IV-G: the security matrix.

    Runs the RSA modular exponentiation (Figure 1) with a set of different
    keys under every scheme and reports, per attacker channel, whether the
    observables distinguish the keys. Also reports the timing-attack
    correlation of {!Sempe_security.Attacker}. *)

type result = {
  scheme : Sempe_core.Scheme.t;
  leaky : Sempe_security.Leakage.channel list;
  timing_correlation : float;
}

val measure : unit -> result list
(** One row per scheme over seven keys (0x0000, 0xffff, 0xa5a5, 0x0f0f,
    0x8001, 0x1234, 0x7fff), each simulated once: the leakage verdicts
    and the timing correlation read the same runs. *)

val render : result list -> string

val to_json : result list -> Sempe_obs.Json.t
(** One object per scheme: leaky channel names and timing correlation. *)

(** Leakage attribution for one scheme: witnesses for each key's run and
    their stream diff (see {!Sempe_security.Attribution}). *)
type attribution_result = {
  a_scheme : Sempe_core.Scheme.t;
  a_keys : int list;
  a_attribution : Sempe_security.Attribution.t;
  a_witnesses : Sempe_security.Witness.t list;
  a_program : Sempe_isa.Program.t;
      (** the scheme's compiled program — resolves divergent pcs to
          source statements *)
}

val measure_attribution : ?keys:int list -> unit -> attribution_result list
(** Like {!measure} but recording full witnesses: one job per scheme on
    the batch pool, every key run under a fresh machine. *)

val render_attribution :
  ?channels:Sempe_security.Witness.stream list ->
  attribution_result list ->
  string
(** Per-scheme attribution reports; [channels] restricts to the named
    streams (CLI [--channel]). *)

val attribution_to_json :
  ?channels:Sempe_security.Witness.stream list ->
  attribution_result list ->
  Sempe_obs.Json.t
