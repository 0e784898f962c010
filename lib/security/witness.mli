(** Per-run attacker-view event streams for leakage attribution.

    {!Leakage} answers {e whether} a channel distinguishes two secrets by
    comparing one digest per channel; a witness keeps the underlying
    sequences so {!Attribution} can answer {e where}: the first diverging
    event, its static PC, and the hardware structure instance it touched.

    Capture rides the {!Sempe_pipeline.Probe} interface: a witness is
    passive (nothing it records ever feeds back into a cycle assignment)
    and free when detached (the timing model emits no events without a
    probe).

    Streams store plain ints: every entry is four words,
    [(pc, structure, detail, cycle)]. Each stream lives in fixed chunks
    rather than one doubling array. Its first chunk starts at 256 words
    and doubles up to 8192 words (64 KB); after that a full chunk is
    never copied and the next entries go into a new 8192-word chunk. A
    short run costs no more than one small array, a long run copies
    nothing past its first 64 KB, and every chunk stays below glibc's
    128 KB mmap threshold, so freed chunks are reused from the heap
    rather than page-faulted in anew. Chunks are [Bytes] (one 64-bit
    word per int), which the major GC never scans, and they go straight
    to the major heap, where [Gc.minor_words] does not count them. *)

type t

(** One attacker-observable event sequence. Channels with a stream map
    1:1 onto {!Leakage.channel}; [Instruction_count] has no stream of its
    own (its divergence is the [Trace] length). *)
type stream = Trace | Address | Icache | Dcache | L2 | Bpred | Timing

val streams : stream list
val stream_name : stream -> string

val create : ?machine:Sempe_pipeline.Config.t -> unit -> t
(** Fresh empty witness. [machine] (default {!Sempe_pipeline.Config.default})
    supplies the cache geometry used to name set indices. *)

val probe : t -> Sempe_pipeline.Probe.t
(** The probe that appends this run's events to the witness. Attach it via
    [Timing.create ?probe] / [Run.simulate ?sink] (tee with any other
    sink). *)

val length : t -> stream -> int
(** Number of events recorded on a stream. *)

val entry : t -> stream -> int -> int * int * int
(** [entry t s i] is the [i]-th [(pc, structure, detail)] event of [s].
    [pc] is the static instruction index that caused the event;
    [structure] names the hardware structure instance it touched (decode
    with {!structure_name}); [detail] is per-stream: the word address
    (Address), extra miss latency (Icache/Dcache/L2), taken/mispredict
    bits (Bpred), commit cycle or drain length (Timing), 0 (Trace).
    @raise Invalid_argument when out of range. *)

val cycle_at : t -> stream -> int -> int
(** Commit cycle of the µop behind the [i]-th event — reporting metadata
    (Perfetto timestamps), deliberately {e not} part of stream equality on
    any stream but Timing (where it equals the entry's [detail]).
    @raise Invalid_argument when out of range. *)

val instructions : t -> int
(** Committed-µop count ([length t Trace]). *)

val btb_set_mask : int
(** Mask naming a BTB set in structure ids: [pc land btb_set_mask], with
    [btb_set_mask = Sempe_bpred.Btb.default_sets - 1] since the timing
    model builds the default BTB. *)

val structure_name : int -> string
(** Human name of a structure id, e.g. ["dl1[set 17]"], ["btb[set 405]"],
    ["predictor@pc 12"]. *)

val first_divergence : t -> t -> stream -> int option
(** Index of the first event where the two runs' streams differ — by pc,
    structure, or detail — or the length of the shorter stream when one is
    a proper prefix of the other; [None] when identical. *)
