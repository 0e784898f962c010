(* Way state in flat packed int arrays indexed [set * ways + way], same
   layout discipline as {!Cache} and {!Tage}: a lookup touches one
   contiguous handful of words, and a warmed BTB marshals three int
   arrays. tags.(i) = -1 encodes an invalid way. *)
type t = {
  nsets : int;
  set_shift : int; (* log2 nsets; sets are asserted a power of two *)
  ways : int;
  tags : int array;
  targets : int array;
  lru : int array;
  mutable clock : int;
}

let log2_pow2 n =
  let s = ref 0 in
  while 1 lsl !s < n do
    incr s
  done;
  !s

let default_entries = 2048
let default_ways = 4
let default_sets = default_entries / default_ways

let create ?(entries = default_entries) ?(ways = default_ways) () =
  assert (entries mod ways = 0);
  let nsets = entries / ways in
  assert (nsets land (nsets - 1) = 0);
  {
    nsets;
    set_shift = log2_pow2 nsets;
    ways;
    tags = Array.make entries (-1);
    targets = Array.make entries 0;
    lru = Array.make entries 0;
    clock = 0;
  }

let sets t = t.nsets

let set_base t pc = (pc land (t.nsets - 1)) * t.ways

(* pcs are non-negative, so the shift equals the division by [nsets] of
   the record-based reference *)
let tag_of t pc = pc lsr t.set_shift

(* Allocation-free lookup with the LRU touch folded in; -1 encodes a
   miss. This is the per-branch hot path, hence the while-loop scan (a
   local [let rec] would allocate a closure per call without flambda). *)
let find t ~pc =
  let base = set_base t pc and tag = tag_of t pc in
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && Array.unsafe_get t.tags !i <> tag do
    incr i
  done;
  if !i < stop then begin
    t.clock <- t.clock + 1;
    Array.unsafe_set t.lru !i t.clock;
    Array.unsafe_get t.targets !i
  end
  else -1

let lookup t ~pc =
  let v = find t ~pc in
  if v < 0 then None else Some v

let update t ~pc ~target =
  let base = set_base t pc and tag = tag_of t pc in
  let stop = base + t.ways in
  t.clock <- t.clock + 1;
  let i = ref base in
  while !i < stop && Array.unsafe_get t.tags !i <> tag do
    incr i
  done;
  let w =
    if !i < stop then !i
    else begin
      (* First way with the minimum stamp, matching the record-based fold
         this replaced (strict < kept the earlier way on ties). *)
      let best = ref base in
      let best_lru = ref (Array.unsafe_get t.lru base) in
      for j = base + 1 to stop - 1 do
        let l = Array.unsafe_get t.lru j in
        if l < !best_lru then begin
          best := j;
          best_lru := l
        end
      done;
      !best
    end
  in
  Array.unsafe_set t.tags w tag;
  Array.unsafe_set t.targets w target;
  Array.unsafe_set t.lru w t.clock

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.targets 0 (Array.length t.targets) 0;
  Array.fill t.lru 0 (Array.length t.lru) 0;
  t.clock <- 0

let signature t =
  (* Fold order (sets ascending, ways ascending) matches the record-based
     layout this replaced bit for bit. *)
  let acc = ref 1469598103 in
  for i = 0 to Array.length t.tags - 1 do
    acc := (!acc * 31) + (t.tags.(i) lxor (t.targets.(i) lsl 1))
  done;
  !acc
