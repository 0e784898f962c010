(* Differential check of the predecoded threaded interpreter against a
   straight-line reference interpreter.

   The production core ({!Sempe_core.Exec}) predecodes each static
   instruction into a specialized thunk and reuses one mutable µop record
   per pc. The reference below is the shape the core had before that
   rewrite: re-match the instruction constructor every step and allocate a
   fresh µop per commit. Both must produce byte-identical architectural
   results and — fed into identical fresh timing models — byte-identical
   timing reports, over fuzz-generated SeMPE programs and curated
   workloads. Sampled estimates must additionally be identical at any
   worker count. *)

open Sempe_isa
module Exec = Sempe_core.Exec
module Jbtable = Sempe_core.Jbtable
module Snapshot = Sempe_core.Snapshot
module Scheme = Sempe_core.Scheme
module Spm = Sempe_mem.Spm
module Uop = Sempe_pipeline.Uop
module Timing = Sempe_pipeline.Timing
module Gen = Sempe_fuzz.Gen
module Harness = Sempe_workloads.Harness
module Microbench = Sempe_workloads.Microbench
module Kernels = Sempe_workloads.Kernels

(* ---- reference interpreter ------------------------------------------- *)

type ref_result = {
  r_regs : int array;
  r_mem : int array;
  r_instrs : int;
  r_sjmps : int;
  r_nesting : int;
}

(* Semantics transcribed from the paper sections the production core
   implements, with the pre-rewrite execution strategy. Event order per
   instruction is the contract both interpreters share: fetch, data access,
   control flow; Commit before the Drain it causes. *)
let ref_run ~(config : Exec.config) ?(init_mem = fun (_ : int array) -> ())
    ?(sink = fun (_ : Uop.event) -> ()) prog =
  assert (config.Exec.fault = Exec.No_fault);
  let mw = config.Exec.mem_words in
  let forgiving = config.Exec.forgiving_oob in
  let sempe = config.Exec.support = Exec.Sempe_hw in
  let plen = Program.length prog in
  let regs = Array.make Reg.count 0 in
  let mem = Array.make mw 0 in
  let jb = Jbtable.create ~entries:config.Exec.jbtable_entries () in
  let snaps = Snapshot.create () in
  let spm = Spm.create ~config:config.Exec.spm () in
  regs.(Reg.sp) <- mw - 1;
  regs.(Reg.gp) <- 0;
  init_mem mem;
  let pc = ref prog.Program.entry in
  let count = ref 0 and sjmps = ref 0 and nesting = ref 0 in
  let halted = ref false in
  let wr r v =
    if r <> Reg.zero then begin
      regs.(r) <- v;
      Snapshot.note_write snaps r
    end
  in
  let resolve_target pc target =
    if target >= 0 && target < plen then target
    else if forgiving then ((target mod plen) + plen) mod plen
    else raise (Exec.Out_of_bounds { pc; addr = target })
  in
  while not !halted do
    if !count >= config.Exec.max_instrs then raise (Exec.Budget_exceeded !count);
    let here = !pc in
    let instr = prog.Program.code.(here) in
    let commit ?(mem_addr = 0) set =
      let u = Uop.of_instr ~pc:here instr ~mem_addr in
      set u;
      sink (Uop.Commit u)
    in
    let plain () = commit (fun _ -> ()) in
    (match instr with
     | Instr.Nop ->
       plain ();
       pc := here + 1
     | Instr.Alu (op, rd, rs1, rs2) ->
       plain ();
       wr rd (Instr.eval_alu op regs.(rs1) regs.(rs2));
       pc := here + 1
     | Instr.Alui (op, rd, rs1, imm) ->
       plain ();
       wr rd (Instr.eval_alu op regs.(rs1) imm);
       pc := here + 1
     | Instr.Li (rd, imm) ->
       plain ();
       wr rd imm;
       pc := here + 1
     | Instr.Ld (rd, base, off) ->
       let addr = regs.(base) + off in
       if addr >= 0 && addr < mw then begin
         commit ~mem_addr:addr (fun _ -> ());
         wr rd mem.(addr)
       end
       else if forgiving then begin
         let a = ((addr mod mw) + mw) mod mw in
         commit ~mem_addr:a (fun _ -> ());
         wr rd 0
       end
       else raise (Exec.Out_of_bounds { pc = here; addr });
       pc := here + 1
     | Instr.St (rs, base, off) ->
       let addr = regs.(base) + off in
       if addr >= 0 && addr < mw then begin
         commit ~mem_addr:addr (fun _ -> ());
         mem.(addr) <- regs.(rs)
       end
       else if forgiving then
         commit ~mem_addr:(((addr mod mw) + mw) mod mw) (fun _ -> ())
       else raise (Exec.Out_of_bounds { pc = here; addr });
       pc := here + 1
     | Instr.Cmov (rd, rc, rs) ->
       plain ();
       if regs.(rc) <> 0 then wr rd regs.(rs);
       pc := here + 1
     | Instr.Br { cond; rs1; rs2; target; secure } when secure && sempe ->
       let outcome = Instr.eval_cond cond regs.(rs1) regs.(rs2) in
       ignore (Jbtable.push jb);
       Jbtable.commit_sjmp jb ~dest:target ~outcome;
       commit (fun u ->
           u.Uop.ctl <- Uop.Ctl_branch;
           u.Uop.secure <- true;
           u.Uop.target <- target;
           u.Uop.taken <- outcome);
       let cycles = Spm.push_full_save spm in
       Snapshot.push snaps ~regs ~outcome;
       if Snapshot.depth snaps > !nesting then nesting := Snapshot.depth snaps;
       sink (Uop.Drain { reason = Uop.Drain_enter_secblock; spm_cycles = cycles });
       incr sjmps;
       pc := here + 1
     | Instr.Br { cond; rs1; rs2; target; secure = _ } ->
       let taken = Instr.eval_cond cond regs.(rs1) regs.(rs2) in
       commit (fun u ->
           u.Uop.ctl <- Uop.Ctl_branch;
           u.Uop.target <- target;
           u.Uop.taken <- taken);
       pc := (if taken then target else here + 1)
     | Instr.Jmp target ->
       commit (fun u ->
           u.Uop.ctl <- Uop.Ctl_jump;
           u.Uop.target <- target);
       pc := target
     | Instr.Call target ->
       commit (fun u ->
           u.Uop.ctl <- Uop.Ctl_call;
           u.Uop.target <- target;
           u.Uop.return_to <- here + 1);
       wr Reg.ra (here + 1);
       pc := target
     | Instr.Jr r ->
       let target = resolve_target here regs.(r) in
       commit (fun u ->
           u.Uop.ctl <- Uop.Ctl_indirect;
           u.Uop.target <- target);
       pc := target
     | Instr.Ret ->
       let target = resolve_target here regs.(Reg.ra) in
       commit (fun u ->
           u.Uop.ctl <- Uop.Ctl_ret;
           u.Uop.target <- target);
       pc := target
     | Instr.Eosjmp when sempe ->
       if Jbtable.is_empty jb then begin
         plain ();
         pc := here + 1
       end
       else begin
         match Jbtable.on_eosjmp jb with
         | Jbtable.Jump_back dest ->
           commit (fun u ->
               u.Uop.ctl <- Uop.Ctl_jumpback;
               u.Uop.target <- dest);
           let nt_mods = Snapshot.end_nt_path snaps ~regs in
           let c1 = Spm.save_modified spm ~modified:nt_mods in
           let c2 = Spm.read_modified spm ~modified:nt_mods in
           sink
             (Uop.Drain
                { reason = Uop.Drain_after_nt_path; spm_cycles = c1 + c2 });
           pc := dest
         | Jbtable.Release ->
           plain ();
           let union = Snapshot.finish snaps ~regs in
           let cycles = Spm.restore spm ~modified_union:union in
           sink
             (Uop.Drain
                { reason = Uop.Drain_exit_secblock; spm_cycles = cycles });
           pc := here + 1
       end
     | Instr.Eosjmp ->
       plain ();
       pc := here + 1
     | Instr.Halt ->
       plain ();
       halted := true);
    incr count
  done;
  {
    r_regs = regs;
    r_mem = mem;
    r_instrs = !count;
    r_sjmps = !sjmps;
    r_nesting = !nesting;
  }

(* ---- comparison driver ------------------------------------------------ *)

let check_same ~what ~config ~init_mem prog =
  (* Detailed runs: each side feeds its own fresh timing model. *)
  let t_ref = Timing.create () in
  let r = ref_run ~config ~init_mem ~sink:(Timing.feed t_ref) prog in
  let t_new = Timing.create () in
  let n = Exec.run ~config ~init_mem ~sink:(Timing.feed t_new) prog in
  Alcotest.(check (array int)) (what ^ ": registers") r.r_regs n.Exec.regs;
  Alcotest.(check bool)
    (what ^ ": memory image")
    true
    (r.r_mem = n.Exec.memory);
  Alcotest.(check int) (what ^ ": dyn instrs") r.r_instrs n.Exec.dyn_instrs;
  Alcotest.(check int) (what ^ ": dyn sjmps") r.r_sjmps n.Exec.dyn_sjmps;
  Alcotest.(check int) (what ^ ": max nesting") r.r_nesting n.Exec.max_nesting;
  let rep_ref = Timing.report t_ref and rep_new = Timing.report t_new in
  Alcotest.(check bool)
    (Printf.sprintf "%s: timing reports identical (%d vs %d cycles)" what
       rep_ref.Timing.cycles rep_new.Timing.cycles)
    true
    (rep_ref = rep_new);
  (* Fast-forward (no sink) must agree with the instrumented run. *)
  let ff = Exec.run ~config ~init_mem prog in
  Alcotest.(check (array int)) (what ^ ": fast-forward registers") r.r_regs
    ff.Exec.regs;
  Alcotest.(check int) (what ^ ": fast-forward instrs") r.r_instrs
    ff.Exec.dyn_instrs

let mem_words = 1 lsl 14

let config_for support =
  { Exec.default_config with Exec.support; mem_words; max_instrs = 2_000_000 }

(* ---- fuzz-generated programs ------------------------------------------ *)

let pinned_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let test_fuzz_cases () =
  List.iter
    (fun seed ->
      let case = Gen.generate seed in
      let built = Harness.build Scheme.Sempe case.Gen.prog in
      List.iter
        (fun secrets ->
          let init_mem =
            Harness.init_mem_of built ~globals:secrets
              ~arrays:[ (Gen.array_name, case.Gen.fill) ]
          in
          check_same
            ~what:
              (Printf.sprintf "seed %d / %s" seed
                 (String.concat ","
                    (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) secrets)))
            ~config:(config_for Exec.Sempe_hw) ~init_mem built.Harness.prog)
        case.Gen.secrets)
    pinned_seeds

(* ---- curated workloads ------------------------------------------------ *)

let microbench_built scheme =
  let spec = { Microbench.kernel = Kernels.fibonacci; width = 2; iters = 2 } in
  Harness.build scheme (Microbench.program ~ct:false spec)

let test_microbench () =
  List.iter
    (fun (scheme, leaf) ->
      let built = microbench_built scheme in
      let secrets = Microbench.secrets_for_leaf ~width:2 ~leaf in
      let init_mem = Harness.init_mem_of built ~globals:secrets ~arrays:[] in
      check_same
        ~what:
          (Printf.sprintf "microbench %s leaf %d" (Scheme.name scheme) leaf)
        ~config:(config_for (Scheme.support scheme))
        ~init_mem built.Harness.prog)
    [ (Scheme.Sempe, 1); (Scheme.Sempe, 3); (Scheme.Sempe_on_legacy, 2);
      (Scheme.Baseline, 1) ]

(* ---- sampled runs are worker-count independent ------------------------ *)

let test_sampling_workers () =
  let case = Gen.generate 7 in
  let built = Harness.build Scheme.Sempe case.Gen.prog in
  let secrets = List.hd case.Gen.secrets in
  let sample workers =
    Harness.sample ~mem_words ~globals:secrets
      ~arrays:[ (Gen.array_name, case.Gen.fill) ]
      ~config:
        {
          Sempe_sampling.Sampling.interval = 2000;
          coverage = 0.5;
          warmup = 500;
          offset = 0;
        }
      ~workers built
  in
  let e1 = sample 1 and e4 = sample 4 in
  Alcotest.(check bool)
    (Printf.sprintf "estimates identical at 1 and 4 workers (%d vs %d cycles)"
       e1.Sempe_sampling.Sampling.cycles_estimate
       e4.Sempe_sampling.Sampling.cycles_estimate)
    true (e1 = e4)

(* ---- the sized memory image is invisible ------------------------------ *)

(* [Harness.run] sizes its image from the program ([Harness.image_words])
   instead of allocating 2^20 words. Every curated workload must give the
   same result, data segment and report bytes either way. Strict OOB, so
   no access can be clamped differently by the two image sizes. *)

module Api = Sempe_serve.Api
module Run = Sempe_core.Run

let big_image = 1 lsl 20

let image_workloads =
  List.concat_map
    (fun (k : Kernels.t) ->
      List.concat_map
        (fun width ->
          List.map
            (fun leaf ->
              Api.Microbench
                { kernel = k.Kernels.name; width; iters = 1; leaf })
            [ 1; width + 1 ])
        [ 1; 2; 3; 4; 6 ])
    Kernels.all
  @ List.concat_map
      (fun format ->
        List.map
          (fun blocks -> Api.Djpeg { format; blocks; seed = 1 })
          [ 1; 5; 64 ])
      (List.map Sempe_workloads.Djpeg.format_name
         Sempe_workloads.Djpeg.all_formats)
  @ List.map (fun key -> Api.Rsa { key }) [ 0; 0xBEEF; 0xFFFF ]

let check_image_independent scheme workload =
  let what =
    Printf.sprintf "%s / %s" (Scheme.name scheme) (Api.describe workload)
  in
  let built = Api.build scheme workload in
  let globals, arrays = Api.inputs workload in
  let run ?mem_words () =
    Harness.run ?mem_words ~forgiving_oob:false ~globals ~arrays built
  in
  let sized = run () and big = run ~mem_words:big_image () in
  let data_words = built.Harness.prog.Program.data_words in
  let data (o : Run.outcome) = Array.sub o.Run.exec.Exec.memory 0 data_words in
  let report (o : Run.outcome) =
    Sempe_obs.Json.to_string (Sempe_obs.Report.to_json o.Run.timing)
  in
  let words = Array.length sized.Run.exec.Exec.memory in
  Alcotest.(check int) (what ^ ": default image") (Harness.image_words built)
    words;
  Alcotest.(check bool) (what ^ ": image is smaller") true (words < big_image);
  Alcotest.(check int) (what ^ ": return value") (Harness.return_value big)
    (Harness.return_value sized);
  Alcotest.(check bool) (what ^ ": data segment") true (data big = data sized);
  Alcotest.(check string) (what ^ ": report") (report big) (report sized)

let test_image_size_independence () =
  List.iter
    (fun scheme ->
      List.iter (check_image_independent scheme) image_workloads)
    Scheme.all

(* A recursion deeper than the sized image's stack reserve must stop at
   the data segment with the structured error, in either OOB mode, rather
   than overwrite the global and return a wrong sum. The 2^20-word image
   has room for it and returns the right answer. *)
let deep_recursion =
  let open Sempe_lang.Ast in
  let depth = 10_000 in
  let prog =
    {
      funcs =
        [
          {
            fname = "down";
            params = [ "n" ];
            locals = [];
            body =
              [
                if_ (v "n" =: i 0) [ ret (i 0) ]
                  [ ret (Call ("down", [ v "n" -: i 1 ]) +: i 1) ];
              ];
          };
          {
            fname = "main";
            params = [];
            locals = [ "r" ];
            body =
              [
                assign "g" (i 7);
                assign "r" (Call ("down", [ i depth ]));
                ret (v "r" +: v "g");
              ];
          };
        ];
      globals = [ "g" ];
      arrays = [];
      secrets = [];
      main = "main";
    }
  in
  (prog, depth + 7)

let test_stack_floor () =
  let prog, expected = deep_recursion in
  let built = Harness.build Scheme.Baseline prog in
  let data_words = built.Harness.prog.Program.data_words in
  List.iter
    (fun forgiving_oob ->
      match Harness.run ~forgiving_oob built with
      | exception Exec.Stack_exhausted { sp; data_words = floor; _ } ->
        Alcotest.(check int) "floor is the data segment end" data_words floor;
        Alcotest.(check bool) "sp stopped below the floor" true (sp < floor)
      | o ->
        Alcotest.failf "forgiving_oob=%b: returned %d instead of failing"
          forgiving_oob (Harness.return_value o))
    [ true; false ];
  let big = Harness.run ~mem_words:big_image built in
  Alcotest.(check int) "2^20-word image returns the sum" expected
    (Harness.return_value big)

let tests =
  [
    Alcotest.test_case "fuzz cases old-vs-new" `Quick test_fuzz_cases;
    Alcotest.test_case "microbench old-vs-new" `Quick test_microbench;
    Alcotest.test_case "sampling worker independence" `Quick test_sampling_workers;
    Alcotest.test_case "sized image matches 2^20 words" `Slow
      test_image_size_independence;
    Alcotest.test_case "stack floor stops deep recursion" `Quick
      test_stack_floor;
  ]
