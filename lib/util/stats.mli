(** Simulation statistics: named counters, ratios and summaries.

    Every simulator component owns a [group]; the run harness collects the
    groups into a report. Counters are plain [int] cells so the hot paths pay
    one increment. *)

type counter
(** A monotonically increasing event count. *)

type group
(** A named collection of counters. *)

val group : string -> group
(** [group name] is a fresh, empty group. *)

val counter : group -> string -> counter
(** [counter g name] registers a zeroed counter named [name] in [g]. Names
    must be unique within a group. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val reset_group : group -> unit

val to_list : group -> (string * int) list
(** Counters of a group in registration order. *)

val find : group -> string -> int
(** [find g name] is the value of the named counter.
    @raise Not_found if absent. *)

val ratio : num:int -> den:int -> float
(** [ratio ~num ~den] is [num / den] as a float, or [0.] when [den = 0]. *)

(** Streaming summary of a series of float observations. *)
module Summary : sig
  type t

  val create : unit -> t
  val observe : t -> float -> unit
  val n : t -> int

  val count : t -> int
  (** Number of observations (alias of {!n}). *)

  val mean : t -> float
  (** [0.] when nothing has been observed. *)

  val percentile : float -> t -> float
  (** [percentile p t] is the nearest-rank [p]-th percentile of the
      observations, with [p] a fraction in [\[0, 1\]] (clamped): the
      sample at rank [ceil (p * n)] of the ascending order, so
      [percentile 0. t] and [percentile 1. t] are the exact min and max.
      [0.] when nothing has been observed (consistent with {!mean}). *)

  val stddev : t -> float

  val min : t -> float
  (** [0.] when nothing has been observed (consistent with {!mean}). *)

  val max : t -> float
  (** [0.] when nothing has been observed (consistent with {!mean}). *)
end
