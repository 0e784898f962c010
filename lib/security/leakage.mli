(** Leakage detection: run the victim with different secrets, compare the
    attacker-visible views channel by channel. *)

type channel =
  | Timing            (** end-to-end cycle count *)
  | Trace             (** committed-PC sequence *)
  | Address           (** memory access-pattern *)
  | Icache            (** instruction-cache contents *)
  | Dcache            (** data-cache contents *)
  | L2
  | Bpred             (** branch-predictor / BTB state *)
  | Instruction_count

val channels : channel list
val channel_name : channel -> string

val channel_of_name : string -> channel option
(** Inverse of {!channel_name}; [None] on an unknown name. Used by CLI
    channel filters. *)

val fingerprint : channel -> Observable.view -> int list
(** Structural digest of a channel: independent components (paired
    stream digests, stream lengths, access/miss counters) that must all
    collide simultaneously for a real difference to go unseen. This is
    what {!compare_views} compares. *)

val stream_of_channel : channel -> Witness.stream
(** The witness stream carrying this channel's event sequence
    ([Instruction_count] maps to the committed-PC trace, whose length it
    is). *)

type finding = {
  channel : channel;
  distinct : int;   (** distinct fingerprints seen across the secrets *)
  total : int;      (** number of secrets tried *)
  first_divergence : int option;
      (** earliest stream index (across all pairs against the first run)
          where witnesses diverge; [None] without witnesses or when the
          streams agree *)
}

val leaks : finding -> bool
(** A channel leaks when it distinguishes at least two secrets. *)

val compare_views :
  ?witnesses:Witness.t list -> Observable.view list -> finding list
(** One finding per channel over runs with different secrets (same
    program, same public inputs, fresh machine each run). When
    [witnesses] carries one witness per view (same order), findings gain
    the first-divergence index on their channel's stream.

    @raise Invalid_argument on fewer than two views: a single view (or
    none) cannot witness a leak on any channel, so such a comparison
    would always report "no leak" vacuously — treat it as a harness bug
    rather than a security result. *)

val leaky_channels : Observable.view list -> channel list
(** @raise Invalid_argument like {!compare_views}. *)
