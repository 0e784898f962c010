(* Hot-path split timer: where does a simulated instruction's time go?
   Times the same workload in six modes — functional only, functional +
   discarding sink, functional + warm, full detailed, full detailed with
   a probe that ignores its events, full detailed with a witness — and
   prints ns per dynamic instruction for each, plus GC allocation per
   instruction. `dune exec bench/hotpath.exe [--iters N] [--assert-alloc]`
   (default sized for ~1M dynamic instructions). [--assert-alloc] exits
   non-zero if a mode marked allocation-free allocates measurably per
   instruction — the CI smoke that keeps closures and per-event records
   out of the hot loop, probe-attached runs included. *)

module Exec = Sempe_core.Exec
module Run = Sempe_core.Run
module Timing = Sempe_pipeline.Timing
module Probe = Sempe_pipeline.Probe
module Witness = Sempe_security.Witness
module Warm = Sempe_pipeline.Warm
module Harness = Sempe_workloads.Harness
module Workload = Sempe_workloads.Workload
module Pool = Sempe_util.Pool

let iters =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then 100
    else if Sys.argv.(i) = "--iters" then int_of_string Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let assert_alloc = Array.exists (( = ) "--assert-alloc") Sys.argv

(* Words per instruction below which a mode counts as allocation-free:
   fixed per-run costs (session setup, the report record) amortized over
   ~1M instructions, not anything per-instruction. *)
let alloc_free_threshold = 0.05

let () =
  let w =
    Workload.Microbench { kernel = "fibonacci"; width = 4; iters; leaf = 1 }
  in
  let built = Workload.build Sempe_core.Scheme.Sempe w in
  let globals, arrays = Workload.inputs w in
  let init_mem = Harness.init_mem_of built ~globals ~arrays in
  let prog = built.Harness.prog in
  let mem_words = 1 lsl 20 in
  let failures = ref [] in
  let time ?(alloc_free = false) name f =
    let a0 = Gc.minor_words () in
    let t0 = Pool.now_s () in
    let instrs = f () in
    let dt = Pool.now_s () -. t0 in
    let alloc = (Gc.minor_words () -. a0) /. float_of_int instrs in
    Printf.printf "%-28s %9.1f ns/instr  %7.3f w/instr  (%d instrs, %.3f s)\n%!"
      name
      (dt *. 1e9 /. float_of_int instrs)
      alloc instrs dt;
    if assert_alloc && alloc_free && alloc > alloc_free_threshold then
      failures :=
        Printf.sprintf "%s allocates %.3f w/instr (limit %.3f)" name alloc
          alloc_free_threshold
        :: !failures
  in
  let config = { Exec.default_config with Exec.mem_words } in
  time ~alloc_free:true "functional (no sink)" (fun () ->
      (Exec.run ~config ~init_mem prog).Exec.dyn_instrs);
  time "functional + null sink" (fun () ->
      (Exec.run ~config ~init_mem ~sink:(fun _ -> ()) prog).Exec.dyn_instrs);
  time ~alloc_free:true "functional + warm" (fun () ->
      let warm = Warm.create () in
      let res = Exec.finish (Exec.start ~config ~init_mem ~warm prog) in
      res.Exec.dyn_instrs);
  time ~alloc_free:true "full detailed (timing)" (fun () ->
      let timing = Timing.create () in
      let res = Exec.run ~config ~init_mem ~sink:(Timing.feed timing) prog in
      res.Exec.dyn_instrs);
  (* The timing model refills one event record per callback, so a probe
     that ignores its events costs no allocation either. *)
  time ~alloc_free:true "full detailed + probe" (fun () ->
      let timing = Timing.create ~probe:Probe.null () in
      let res = Exec.run ~config ~init_mem ~sink:(Timing.feed timing) prog in
      res.Exec.dyn_instrs);
  (* Reported, not asserted: the witness's 64 KB stream chunks are
     allocated straight into the major heap, which [Gc.minor_words] does
     not see, so this row's w/instr says nothing about its memory. *)
  time "full detailed + witness" (fun () ->
      let probe = Witness.probe (Witness.create ()) in
      let timing = Timing.create ~probe () in
      let res = Exec.run ~config ~init_mem ~sink:(Timing.feed timing) prog in
      res.Exec.dyn_instrs);
  match List.rev !failures with
  | [] -> ()
  | fs ->
    List.iter (Printf.eprintf "[hotpath] alloc assertion FAILED: %s\n%!") fs;
    exit 1
