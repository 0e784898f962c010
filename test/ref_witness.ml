(* Reference model: the attacker-view witness as it stood before the
   chunked rewrite of [lib/security/witness.ml]. Each stream is one flat
   [int array] of (pc, structure, detail, cycle) entries that doubles
   (and is copied whole) when full — slow on long runs, but obviously
   correct and independent of the chunk index arithmetic.
   [Test_ref_equiv] tees this and the production witness off the same
   run and requires identical lengths, entries, cycles and first
   divergences. Only [stream] is shared with the production module, so
   that one stream name addresses both sides. Do not "optimize" this
   file; its value is that it never changed. *)

module Uop = Sempe_pipeline.Uop
module Probe = Sempe_pipeline.Probe
module Config = Sempe_pipeline.Config
module Stall = Sempe_pipeline.Stall
module Hierarchy = Sempe_mem.Hierarchy
module Cache = Sempe_mem.Cache

type stream = Sempe_security.Witness.stream =
  | Trace | Address | Icache | Dcache | L2 | Bpred | Timing

let streams = [ Trace; Address; Icache; Dcache; L2; Bpred; Timing ]

let stream_index = function
  | Trace -> 0
  | Address -> 1
  | Icache -> 2
  | Dcache -> 3
  | L2 -> 4
  | Bpred -> 5
  | Timing -> 6

let n_streams = 7

let stream_name = function
  | Trace -> "pc-trace"
  | Address -> "mem-address"
  | Icache -> "icache"
  | Dcache -> "dcache"
  | L2 -> "l2"
  | Bpred -> "branch-predictor"
  | Timing -> "timing"

(* ---- hardware-structure identifiers ----
   One int names a structure instance: [tag lsl 24 lor index]. Constant
   tags rather than a variant so stream entries stay unboxed ints. *)

let tag_pc = 0
let tag_dl1 = 1
let tag_il1 = 2
let tag_l2 = 3
let tag_btb = 4
let tag_predictor = 5
let tag_ras = 6
let tag_ittage = 7
let tag_stall = 8
let tag_drain = 9
let structure ~tag ~index = (tag lsl 24) lor (index land 0xffffff)

(* The BTB is not parameterized by Config: the timing model builds it
   with Btb.create (), so its set count is Btb.default_sets. *)
let btb_set_mask = Sempe_bpred.Btb.default_sets - 1

let structure_name sid =
  let tag = sid lsr 24 in
  let index = sid land 0xffffff in
  if tag = tag_pc then Printf.sprintf "pc %d" index
  else if tag = tag_dl1 then Printf.sprintf "dl1[set %d]" index
  else if tag = tag_il1 then Printf.sprintf "il1[set %d]" index
  else if tag = tag_l2 then Printf.sprintf "l2[set %d]" index
  else if tag = tag_btb then Printf.sprintf "btb[set %d]" index
  else if tag = tag_predictor then Printf.sprintf "predictor@pc %d" index
  else if tag = tag_ras then "ras"
  else if tag = tag_ittage then Printf.sprintf "ittage@pc %d" index
  else if tag = tag_stall then
    Printf.sprintf "stall[%s]"
      (match List.nth_opt Stall.all index with
       | Some b -> Stall.name b
       | None -> string_of_int index)
  else if tag = tag_drain then "drain"
  else Printf.sprintf "structure %d/%d" tag index

(* ---- growable stride-4 int buffer: (pc, structure, detail, cycle) ----
   [cycle] is the commit cycle of the µop that caused the event. It is
   carried for reporting (Perfetto timestamps) but excluded from stream
   equality on every stream except Timing — where the timing IS the
   observable and lives in [detail]. *)

type buf = { mutable a : int array; mutable len : int }

let buf () = { a = Array.make 256 0; len = 0 }

let push4 b pc sid detail cycle =
  if b.len + 4 > Array.length b.a then begin
    let a' = Array.make (2 * Array.length b.a) 0 in
    Array.blit b.a 0 a' 0 b.len;
    b.a <- a'
  end;
  b.a.(b.len) <- pc;
  b.a.(b.len + 1) <- sid;
  b.a.(b.len + 2) <- detail;
  b.a.(b.len + 3) <- cycle;
  b.len <- b.len + 4

type t = {
  bufs : buf array; (* indexed by [stream_index] *)
  (* set geometry, precomputed from the machine model *)
  inst_bytes : int;
  word_bytes : int;
  il1_sets : int;
  dl1_line : int;
  dl1_sets : int;
  l2_line : int;
  l2_sets : int;
  mutable last_pc : int;
}

let sets (c : Cache.config) =
  max 1 (c.Cache.size_bytes / (c.Cache.line_bytes * c.Cache.ways))

let create ?(machine = Config.default) () =
  let h = machine.Config.hierarchy in
  {
    bufs = Array.init n_streams (fun _ -> buf ());
    inst_bytes = machine.Config.inst_bytes;
    word_bytes = machine.Config.word_bytes;
    il1_sets = sets h.Hierarchy.il1;
    dl1_line = h.Hierarchy.dl1.Cache.line_bytes;
    dl1_sets = sets h.Hierarchy.dl1;
    l2_line = h.Hierarchy.l2.Cache.line_bytes;
    l2_sets = sets h.Hierarchy.l2;
    last_pc = -1;
  }

let stream_buf t s = t.bufs.(stream_index s)
let length t s = (stream_buf t s).len / 4

let entry t s i =
  let b = stream_buf t s in
  let k = 4 * i in
  if k < 0 || k + 3 >= b.len then invalid_arg "Witness.entry";
  (b.a.(k), b.a.(k + 1), b.a.(k + 2))

let cycle_at t s i =
  let b = stream_buf t s in
  let k = 4 * i in
  if k < 0 || k + 3 >= b.len then invalid_arg "Witness.cycle_at";
  b.a.(k + 3)

let instructions t = length t Trace

(* ---- capture ---- *)

let on_uop t (ev : Probe.uop_event) =
  let u = ev.Probe.uop in
  let pc = u.Uop.pc in
  t.last_pc <- pc;
  let cyc = ev.Probe.commit in
  (* committed-PC trace: the execution-order channel, timing-free *)
  push4 t.bufs.(stream_index Trace) pc (structure ~tag:tag_pc ~index:pc) 0 cyc;
  (* per-cycle timing: commit cycle of every µop, bucketed by the stall
     source that bound it *)
  push4
    t.bufs.(stream_index Timing)
    pc
    (structure ~tag:tag_stall ~index:(Stall.index ev.Probe.bucket))
    cyc cyc;
  (* instruction-cache accesses: only fetches that left the previous line
     touch the IL1 at all *)
  if ev.Probe.il1_line >= 0 then begin
    let sid =
      structure ~tag:tag_il1 ~index:(ev.Probe.il1_line mod t.il1_sets)
    in
    push4 t.bufs.(stream_index Icache) pc sid ev.Probe.fetch_extra cyc;
    if ev.Probe.fetch_extra > 0 then
      (* IL1 miss: the line was fetched from (and installed in) the L2 *)
      push4
        t.bufs.(stream_index L2)
        pc
        (structure ~tag:tag_l2
           ~index:(pc * t.inst_bytes / t.l2_line mod t.l2_sets))
        ev.Probe.fetch_extra cyc
  end;
  (match u.Uop.cls with
   | Sempe_isa.Instr.Cls_load | Sempe_isa.Instr.Cls_store ->
     let byte_addr = u.Uop.mem_addr * t.word_bytes in
     let dl1_sid =
       structure ~tag:tag_dl1 ~index:(byte_addr / t.dl1_line mod t.dl1_sets)
     in
     (* access pattern: which address, through which DL1 set *)
     push4 t.bufs.(stream_index Address) pc dl1_sid u.Uop.mem_addr cyc;
     (* data-cache behaviour: hit/miss latency per access *)
     push4 t.bufs.(stream_index Dcache) pc dl1_sid ev.Probe.mem_extra cyc;
     if ev.Probe.mem_extra > 0 then
       push4
         t.bufs.(stream_index L2)
         pc
         (structure ~tag:tag_l2 ~index:(byte_addr / t.l2_line mod t.l2_sets))
         ev.Probe.mem_extra cyc
   | Sempe_isa.Instr.Cls_nop | Sempe_isa.Instr.Cls_int_alu
   | Sempe_isa.Instr.Cls_int_mul | Sempe_isa.Instr.Cls_int_div
   | Sempe_isa.Instr.Cls_branch | Sempe_isa.Instr.Cls_jump
   | Sempe_isa.Instr.Cls_eosjmp | Sempe_isa.Instr.Cls_halt -> ());
  (* predictor-structure updates. sJMPs never consult a predictor (that is
     the SeMPE design point), so they leave no entry here. *)
  let detail = (if u.Uop.taken then 2 else 0) lor
               (if ev.Probe.mispredicted then 1 else 0) in
  let bpred = t.bufs.(stream_index Bpred) in
  (match u.Uop.ctl with
   | Uop.Ctl_none | Uop.Ctl_jumpback -> ()
   | Uop.Ctl_branch ->
     if not u.Uop.secure then begin
       push4 bpred pc (structure ~tag:tag_predictor ~index:pc) detail cyc;
       if u.Uop.taken then
         push4 bpred pc
           (structure ~tag:tag_btb ~index:(pc land btb_set_mask))
           detail cyc
     end
   | Uop.Ctl_jump ->
     push4 bpred pc (structure ~tag:tag_btb ~index:(pc land btb_set_mask))
       detail cyc
   | Uop.Ctl_call ->
     push4 bpred pc (structure ~tag:tag_btb ~index:(pc land btb_set_mask))
       detail cyc;
     push4 bpred pc (structure ~tag:tag_ras ~index:0) detail cyc
   | Uop.Ctl_ret ->
     push4 bpred pc (structure ~tag:tag_ras ~index:0) detail cyc
   | Uop.Ctl_indirect ->
     push4 bpred pc (structure ~tag:tag_ittage ~index:pc) detail cyc)

let on_drain t (ev : Probe.drain_event) =
  (* a drain stalls the whole machine: that is a timing observable *)
  push4
    t.bufs.(stream_index Timing)
    t.last_pc
    (structure ~tag:tag_drain ~index:0)
    (ev.Probe.resume - ev.Probe.start)
    ev.Probe.start

let probe t = { Probe.on_uop = on_uop t; on_drain = on_drain t }

(* ---- comparison ---- *)

let first_divergence a b s =
  let ba = stream_buf a s and bb = stream_buf b s in
  let common = min ba.len bb.len in
  let rec go k =
    if k >= common then if ba.len = bb.len then None else Some (common / 4)
    else if
      ba.a.(k) <> bb.a.(k)
      || ba.a.(k + 1) <> bb.a.(k + 1)
      || ba.a.(k + 2) <> bb.a.(k + 2)
    then Some (k / 4)
    else go (k + 4)
  in
  go 0
