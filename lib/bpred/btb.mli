(** Branch target buffer: caches targets of taken branches and jumps.

    The timing model charges a front-end redirect bubble when a taken
    control transfer misses in the BTB even though its direction was
    predicted correctly. *)

type t

val create : ?entries:int -> ?ways:int -> unit -> t
(** Set-associative with LRU; [entries] defaults to 2048, [ways] to 4. *)

val default_sets : int
(** Sets of the table [create ()] builds (512). A pc maps to set
    [pc land (sets - 1)]. *)

val sets : t -> int

val lookup : t -> pc:int -> int option
(** Predicted target for the instruction at [pc], if cached. *)

val update : t -> pc:int -> target:int -> unit

val reset : t -> unit

val signature : t -> int
(** Hash of the table contents, for the security observables. *)

val find : t -> pc:int -> int
(** Allocation-free {!lookup} for the per-transfer hot path: returns the
    cached target, or [-1] when [pc] misses (targets are instruction
    indices, hence non-negative). Touches the LRU state exactly as
    {!lookup} does. *)
