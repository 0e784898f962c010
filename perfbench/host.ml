(* Host-speed calibration. On a shared host the same run drifts by 10-35%
   from one process to the next, and within a process in spells of a few
   seconds; CPU time drifts with wall time, so the drift is the host's
   speed, not scheduling. Two fixed, allocation-free loops owned by the
   benchmark are timed between operations, and every time is expressed at
   the speed of a reference host; the raw figures are printed beside the
   scaled ones.

   The two loops stand for the two kinds of work a simulator request
   does. [stream] fills an 8 MiB array and makes branchy random accesses
   over it, as setting up a memory image does. [interp] is a small
   bytecode interpreter: 4096 seeded opcodes dispatched through a match,
   with data-dependent branches and loads and stores into a 64 KiB array,
   as fetch, decode and the predictor and cache tables do. A sample is
   [stream] plus four [interp] passes, about equal halves on the
   reference host; either loop alone followed some workloads and missed
   others (see NOTES.md).

   The loops allocate nothing and run only while no simulation is in
   flight. The first pass of each after an operation refills the caches
   the operation evicted, so each is discarded once before it is timed.
   What is kept depends on the host alone, and no change to the program
   under test can move it. *)

(* Outside the OCaml heap, so that it does not count in peak_heap_mb. *)
let buf = Bigarray.(Array1.create int c_layout (1 lsl 20))
let mem = Array.make 8192 0
let regs = Array.make 8 1

let code =
  let x = ref 7 in
  Array.init 4096 (fun _ ->
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      (!x lsr 7) land 7)

(* Median sample of a quiet 2-vCPU development host: [stream] about
   2.7 ms, [interp] about 0.8 ms. *)
let reference_s = 6.0e-3

let samples = ref []
let spent = ref 0.

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let stream () =
  Bigarray.Array1.fill buf 1;
  let x = ref 12345 in
  for i = 0 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (Bigarray.Array1.dim buf - 1) in
    if !x land 4 = 0 then buf.{j} <- buf.{j} + i else x := !x lxor buf.{j}
  done

let interp () =
  let pc = ref 0 in
  for _ = 1 to 300_000 do
    let a = regs.(!pc land 7) and b = regs.((!pc + 3) land 7) in
    (match code.(!pc) with
     | 0 -> regs.(0) <- a + b
     | 1 -> regs.(1) <- a lxor (b lsl 1)
     | 2 -> regs.(2) <- mem.(a land 8191)
     | 3 -> mem.(b land 8191) <- a
     | 4 -> if a land 1 = 0 then pc := (!pc + (b land 63)) land 4095
     | 5 -> regs.(5) <- (a * 31) land 0xffffff
     | 6 -> regs.(6) <- b - a
     | _ -> regs.(7) <- (if a > b then a else b + 1));
    pc := (!pc + 1) land 4095
  done

(* One sample; its time is not part of any window. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  stream ();
  let m = timed stream in
  interp ();
  let s = m +. (4. *. timed interp) in
  samples := s :: !samples;
  spent := !spent +. (Unix.gettimeofday () -. t0);
  s

let block n = for _ = 1 to n do ignore (sample ()) done

(* Between operations of concurrent clients: a short block about once a
   second. *)
let last = ref 0.

let between () =
  if Unix.gettimeofday () -. !last >= 1. then begin
    block 2;
    last := Unix.gettimeofday ()
  end

let median_of a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

let median () = median_of (Array.of_list !samples)

(* Multiply a measured time by this to express it at reference speed. *)
let factor () = reference_s /. median ()

(* Per-operation factors for a closed loop. [speeds] holds the samples in
   the order taken, the last one after the last operation; [at] gives,
   for each operation, the index of the sample just before it. Operation i
   is scaled by the median of the five samples around [at_i], from two
   before it to two after: one sample alone is as noisy as the drift it
   measures, and a run-wide median misses the spells. *)
let local_factors speeds at =
  let a = Array.of_list speeds in
  let last = Array.length a - 1 in
  List.map
    (fun j ->
      let lo = max 0 (j - 2) and hi = min last (j + 2) in
      reference_s /. median_of (Array.sub a lo (hi - lo + 1)))
    at
