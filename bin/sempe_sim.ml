(* sempe-sim: command-line front end to the SeMPE simulator.

   Subcommands: config, microbench, djpeg, rsa, sample, leakage, report,
   profile, trace, asm-run, disasm, fuzz. *)

open Cmdliner
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Timing = Sempe_pipeline.Timing
module Config = Sempe_pipeline.Config
module Harness = Sempe_workloads.Harness
module Workload = Sempe_workloads.Workload
module Kernels = Sempe_workloads.Kernels
module Rsa = Sempe_workloads.Rsa
module Tablefmt = Sempe_util.Tablefmt
module Json = Sempe_obs.Json
module Report = Sempe_obs.Report
module Sink = Sempe_obs.Sink
module Sampling = Sempe_sampling.Sampling
module Pool = Sempe_util.Pool
module Api = Sempe_serve.Api
module Server = Sempe_serve.Server
module Wire = Sempe_serve.Wire
module Router = Sempe_serve.Router
module Client = Sempe_serve.Client
module Loadgen = Sempe_serve.Loadgen
module Subproc = Sempe_util.Subproc
module Batch = Sempe_experiments.Batch

let scheme_conv =
  let parse s =
    match Scheme.of_string s with
    | Some v -> Ok v
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown scheme %S (expected one of: %s)" s
              (String.concat ", " (List.map Scheme.name Scheme.all))))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Scheme.name s))

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Scheme.Sempe
    & info [ "scheme"; "s" ] ~docv:"SCHEME"
        ~doc:"Protection scheme: baseline, sempe, sempe-on-legacy, cte, raccoon or mto.")

(* Parallel fan-out of the experiment grids (report / leakage). The
   rendered output is byte-identical at any -j. *)
let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the simulation sweeps. 0 (the default) \
           means one per core; 1 forces the sequential path.")

let set_jobs j =
  Batch.set_jobs (if j <= 0 then Batch.default_jobs () else j)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit a machine-readable JSON document on stdout.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Write sweep progress and per-job timing telemetry to stderr \
           (stdout output is unaffected).")

let with_progress progress f =
  Batch.set_progress progress;
  let r = f () in
  (if progress then
     match Batch.telemetry () with
     | None -> ()
     | Some t ->
       Printf.eprintf
         "[sweep] %d jobs, %.2fs wall, %.1f jobs/s; per-job mean %.3fs, p50 \
          %.3fs, p95 %.3fs, max %.3fs\n\
          %!"
         t.Batch.jobs_run t.Batch.wall_s t.Batch.throughput t.Batch.mean_s
         t.Batch.p50_s t.Batch.p95_s t.Batch.max_s);
  r

let print_json j = print_endline (Json.to_string j)

(* Both views of one [Api.run] value: whichever the user asked for is
   printed, and the daemon serves the JSON one. *)
let print_result json result =
  if json then print_json (Api.to_json result)
  else print_string (Api.render result)

(* ---- sampled-simulation options shared by the workload commands ---- *)

let strict_oob_arg =
  Arg.(
    value & flag
    & info [ "strict-oob" ]
        ~doc:
          "Trap on out-of-bounds data addresses and indirect-jump targets \
           (jr/ret) instead of wrapping them into memory / into the \
           program (the forgiving default).")

let sample_flag =
  Arg.(
    value & flag
    & info [ "sample" ]
        ~doc:
          "Estimate cycles by sampled simulation (checkpointed intervals \
           under functional warming) instead of simulating every \
           instruction in detail.")

let coverage_arg =
  Arg.(
    value & opt float Sampling.default_config.Sampling.coverage
    & info [ "coverage" ] ~docv:"FRAC"
        ~doc:"Fraction of intervals measured in detail, in (0, 1].")

let interval_arg =
  Arg.(
    value & opt int Sampling.default_config.Sampling.interval
    & info [ "interval" ] ~docv:"N" ~doc:"Instructions per sampling interval.")

let warmup_arg =
  Arg.(
    value & opt int Sampling.default_config.Sampling.warmup
    & info [ "warmup" ] ~docv:"N"
        ~doc:"Detailed warmup instructions before each measured interval.")

(* ---- config ---- *)

let config_cmd =
  let run () =
    Tablefmt.print ~header:[ "parameter"; "value" ]
      (List.map (fun (k, v) -> [ k; v ]) (Config.rows Config.default))
  in
  Cmd.v (Cmd.info "config" ~doc:"Print the Table II machine model.")
    Term.(const run $ const ())

(* ---- workloads: flags, the selector, and the range check ---- *)

let width_arg =
  Arg.(value & opt int 4 & info [ "width"; "w" ] ~docv:"W" ~doc:"Nesting width W (kernels).")

let iters_arg =
  Arg.(value & opt int 3 & info [ "iters"; "i" ] ~docv:"N" ~doc:"Iterations (kernels).")

let leaf_arg =
  Arg.(value & opt int 1 & info [ "leaf" ] ~docv:"N" ~doc:"True leaf, 1..W+1 (kernels).")

let blocks_arg =
  Arg.(value & opt int 8 & info [ "blocks"; "b" ] ~docv:"N" ~doc:"8x8 blocks (djpeg).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Image seed (djpeg).")

let key_arg =
  Arg.(value & opt int Rsa.default_key & info [ "key" ] ~docv:"KEY" ~doc:"Secret exponent (rsa).")

(* [rsa], [djpeg] (always PPM) or a microbenchmark kernel name. *)
let select which ~width ~iters ~leaf ~blocks ~seed ~key =
  match String.lowercase_ascii which with
  | "rsa" -> Workload.check (Workload.Rsa { key })
  | "djpeg" -> Workload.check (Workload.Djpeg { format = "PPM"; blocks; seed })
  | kernel when Kernels.by_name kernel <> None ->
    Workload.check (Workload.Microbench { kernel; width; iters; leaf })
  | _ ->
    Error
      (Printf.sprintf "unknown workload %S (rsa, djpeg, or a kernel: %s)" which
         (String.concat ", " (List.map (fun k -> k.Kernels.name) Kernels.all)))

(* Selection and range errors exit 124 with their message, like every
   usage error. *)
let selected_workload which =
  Term.term_result'
    Term.(
      const (fun which width iters leaf blocks seed key ->
          select which ~width ~iters ~leaf ~blocks ~seed ~key)
      $ which $ width_arg $ iters_arg $ leaf_arg $ blocks_arg $ seed_arg
      $ key_arg)

let workload_pos =
  selected_workload
    Arg.(
      value & pos 0 string "rsa"
      & info [] ~docv:"WORKLOAD" ~doc:"rsa, djpeg, or a microbenchmark kernel name.")

(* ---- microbench / djpeg / rsa: the paper's three workloads ---- *)

(* [workload] is the subcommand's own flags; out-of-range values exit 124
   with the message of [Workload.check], the same check the daemon's
   request decoder applies. *)
let workload_cmd name ~doc workload =
  let run scheme workload strict_oob sample interval coverage warmup json =
    print_result json
      (Api.run
         (if sample then
            Api.Sample
              { scheme; workload; strict_oob;
                params = { Api.interval; coverage; warmup } }
          else Api.Simulate { scheme; workload; strict_oob }))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ scheme_arg
      $ Term.term_result' (Term.map Workload.check workload)
      $ strict_oob_arg $ sample_flag $ interval_arg $ coverage_arg $ warmup_arg
      $ json_arg)

let microbench_cmd =
  let kernel =
    Arg.(
      value & opt string Kernels.fibonacci.Kernels.name
      & info [ "kernel"; "k" ] ~docv:"KERNEL" ~doc:"Workload kernel.")
  in
  workload_cmd "microbench" ~doc:"Run the Figure 7 nested-chain microbenchmark."
    Term.(
      const (fun kernel width iters leaf ->
          Workload.Microbench { kernel; width; iters; leaf })
      $ kernel $ width_arg $ iters_arg $ leaf_arg)

let djpeg_cmd =
  let format =
    Arg.(value & opt string "PPM" & info [ "format"; "f" ] ~docv:"FMT" ~doc:"PPM, GIF or BMP.")
  in
  workload_cmd "djpeg" ~doc:"Run the synthetic djpeg decoder."
    Term.(
      const (fun format blocks seed -> Workload.Djpeg { format; blocks; seed })
      $ format $ blocks_arg $ seed_arg)

let rsa_cmd =
  workload_cmd "rsa" ~doc:"Run RSA modular exponentiation (Figure 1)."
    Term.(const (fun key -> Workload.Rsa { key }) $ key_arg)

(* ---- sample ---- *)

let sample_cmd =
  let run scheme workload interval coverage warmup jobs strict compare json =
    let built = Workload.build scheme workload in
    let globals, arrays = Workload.inputs workload in
    let desc = Workload.describe workload in
    let forgiving_oob = not strict in
    let config =
      { Sampling.default_config with Sampling.interval; coverage; warmup }
    in
    let workers = if jobs <= 0 then None else Some jobs in
    (* --compare-full: also run the ordinary detailed simulation so the
       estimate's error and the wall-clock speedup can be read off
       directly (this is the acceptance check for the sampler). The
       reference runs first: the first simulation in a process pays the
       GC-heap growth for both, and the reference is the baseline the
       sampled time is judged against. *)
    let reference =
      if not compare then None
      else begin
        let t1 = Pool.now_s () in
        let outcome = Workload.run ~forgiving_oob built workload in
        Some (Run.cycles outcome, Pool.now_s () -. t1)
      end
    in
    let t0 = Pool.now_s () in
    let est =
      Harness.sample ~forgiving_oob ~globals ~arrays ~config ?workers built
    in
    let sampled_s = Pool.now_s () -. t0 in
    if json then
      print_json
        (Json.Obj
           ([
              ("workload", Json.Str desc);
              ("scheme", Json.Str (Scheme.name scheme));
              ("sampled_s", Json.Float sampled_s);
              ("sampling", Sampling.to_json est);
            ]
           @
           match reference with
           | None -> []
           | Some (full, full_s) ->
             [
               ("full_cycles", Json.Int full);
               ("full_s", Json.Float full_s);
               ("error", Json.Float (Sampling.relative_error est ~cycles:full));
               ("in_bound", Json.Bool (Sampling.contains est ~cycles:full));
               ("speedup",
                Json.Float (if sampled_s > 0. then full_s /. sampled_s else 0.));
             ]))
    else begin
      Printf.printf "sampled simulation: %s, scheme=%s\n" desc
        (Scheme.name scheme);
      Printf.printf
        "interval=%d instrs, coverage=%s, warmup=%d instrs (%.2fs wall)\n\n"
        interval
        (Tablefmt.percent coverage)
        warmup sampled_s;
      print_endline (Sampling.render est);
      match reference with
      | None -> ()
      | Some (full, full_s) ->
        Printf.printf
          "\nfull run: %d cycles in %.2fs -> error %s (%s the 90%% band), \
           speedup %s\n"
          full full_s
          (Tablefmt.percent (Sampling.relative_error est ~cycles:full))
          (if Sampling.contains est ~cycles:full then "inside" else "OUTSIDE")
          (Tablefmt.times (if sampled_s > 0. then full_s /. sampled_s else 0.))
    end
  in
  let compare_arg =
    Arg.(
      value & flag
      & info [ "compare-full" ]
          ~doc:
            "Also run the full detailed simulation and report the \
             estimate's relative error and the wall-clock speedup.")
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:
         "Estimate a workload's cycle count by sampled simulation: one \
          functional pass warms caches and predictors and saves \
          checkpoints; a subset of intervals is then measured under the \
          detailed timing model (in parallel with -j) and extrapolated \
          with a confidence band. Performance only: leakage/security \
          analyses need full runs.")
    Term.(
      const run $ scheme_arg $ workload_pos $ interval_arg $ coverage_arg
      $ warmup_arg $ jobs_arg $ strict_oob_arg $ compare_arg $ json_arg)

(* ---- profile ---- *)

let profile_cmd =
  let run scheme workload top json =
    print_result json (Api.run (Api.Profile { scheme; workload; top }))
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top"; "n" ] ~docv:"N" ~doc:"Rows per profile table.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload with the per-PC profiler attached: CPI stall \
          stack, top mispredicting branches, top DL1-missing loads, and \
          per-sJMP drain costs.")
    Term.(const run $ scheme_arg $ workload_pos $ top $ json_arg)

(* ---- trace ---- *)

let trace_cmd =
  let run scheme workload out jsonl =
    let built = Workload.build scheme workload in
    let oc = open_out out in
    let sink = if jsonl then Sink.jsonl oc else Sink.perfetto oc in
    let outcome =
      Fun.protect
        ~finally:(fun () ->
          sink.Sink.close ();
          close_out oc)
        (fun () -> Workload.run ~sink built workload)
    in
    let r = outcome.Run.timing in
    Printf.printf "trace: %s, scheme=%s\n" (Workload.describe workload)
      (Scheme.name scheme);
    Printf.printf "wrote %s (%d instructions, %d cycles)\n" out
      r.Timing.instructions r.Timing.cycles;
    if not jsonl then
      print_endline
        "open it at https://ui.perfetto.dev (or chrome://tracing): one \
         track per pipeline stage, one slice per instruction"
  in
  let out =
    Arg.(
      value & opt string "sempe-trace.json"
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let jsonl =
    Arg.(
      value & flag
      & info [ "jsonl" ]
          ~doc:
            "Emit flat JSON-lines event records instead of the Chrome \
             trace-event format.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload with the per-instruction pipeline tracer attached \
          and write a Perfetto-loadable trace (fetch, dispatch, issue, \
          complete, commit spans).")
    Term.(const run $ scheme_arg $ workload_pos $ out $ jsonl)

(* ---- leakage ---- *)

let leakage_cmd =
  let module Leakage = Sempe_security.Leakage in
  let module Attribution = Sempe_security.Attribution in
  let module Security_exp = Sempe_experiments.Security_exp in
  let run jobs json progress attribute channel_names trace_out =
    set_jobs jobs;
    if (not attribute) && (channel_names <> [] || trace_out <> None) then begin
      Printf.eprintf "--channel and --trace-out require --attribute\n";
      exit 124
    end;
    if not attribute then
      print_result json (with_progress progress (fun () -> Api.run Api.Leakage))
    else begin
      (* --channel names go through the Leakage channel vocabulary (the
         same names `fuzz --oracle trace` failures report) and map onto
         the witness stream carrying that channel. *)
      let channels =
        match channel_names with
        | [] -> None
        | names ->
          Some
            (List.map
               (fun name ->
                 match Leakage.channel_of_name name with
                 | Some c -> Leakage.stream_of_channel c
                 | None ->
                   Printf.eprintf "unknown channel %S (expected one of: %s)\n"
                     name
                     (String.concat ", "
                        (List.map Leakage.channel_name Leakage.channels));
                   exit 124)
               names)
      in
      let results =
        with_progress progress (fun () -> Security_exp.measure_attribution ())
      in
      (match trace_out with
       | None -> ()
       | Some dir ->
         if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
         List.iter
           (fun (r : Security_exp.attribution_result) ->
             let file =
               Filename.concat dir (Scheme.name r.a_scheme ^ ".json")
             in
             let oc = open_out file in
             Fun.protect
               ~finally:(fun () -> close_out oc)
               (fun () ->
                 Attribution.write_perfetto
                   ~secrets:
                     (List.map (fun k -> Printf.sprintf "key 0x%04x" k)
                        r.a_keys)
                   oc r.a_attribution r.a_witnesses);
             Printf.eprintf "wrote %s\n%!" file)
           results);
      if json then print_json (Security_exp.attribution_to_json ?channels results)
      else print_string (Security_exp.render_attribution ?channels results)
    end
  in
  let attribute =
    Arg.(
      value & flag
      & info [ "attribute" ]
          ~doc:
            "Record full witness streams per key and localize every \
             divergence: first diverging event, static PC, source \
             statement and hardware structure, plus the per-structure \
             leakage stack.")
  in
  let channels =
    Arg.(
      value & opt_all string []
      & info [ "channel" ] ~docv:"NAME"
          ~doc:
            "With $(b,--attribute): restrict the report to this channel \
             (repeatable): timing, pc-trace, mem-address, icache, dcache, \
             l2, branch-predictor, instruction-count.")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"DIR"
          ~doc:
            "With $(b,--attribute): write one Perfetto trace per scheme \
             to $(docv)/<scheme>.json — one lane per key, an instant \
             marker at every divergent region.")
  in
  Cmd.v
    (Cmd.info "leakage"
       ~doc:
         "Leakage matrix: which attacker channels distinguish RSA keys \
          under each scheme. With $(b,--attribute), a full leakage \
          attribution: where the runs diverge, per channel, PC and \
          hardware structure.")
    Term.(
      const run $ jobs_arg $ json_arg $ progress_arg $ attribute $ channels
      $ trace_out)

(* ---- report ---- *)

let report_cmd =
  let run experiment csv json jobs progress =
    (* table1 and ablation have no CSV view: a usage error, raised before
       anything is measured *)
    let no_csv name =
      Printf.eprintf "report %s has no --csv output (use --json)\n" name;
      exit 124
    in
    (match experiment with
     | `Table1 when csv -> no_csv "table1"
     | `Ablation when csv -> no_csv "ablation"
     | _ -> ());
    set_jobs jobs;
    with_progress progress (fun () ->
        match experiment with
        | `Table1 ->
          let rows = Sempe_experiments.Table1.measure () in
          if json then print_json (Sempe_experiments.Table1.to_json rows)
          else print_endline (Sempe_experiments.Table1.render rows)
        | (`Fig8 | `Fig9) as fig ->
          let cells = Sempe_experiments.Djpeg_exp.collect () in
          if json then print_json (Sempe_experiments.Djpeg_exp.to_json cells)
          else if csv then print_string (Sempe_experiments.Djpeg_exp.csv cells)
          else if fig = `Fig8 then
            print_endline (Sempe_experiments.Djpeg_exp.render_fig8 cells)
          else print_endline (Sempe_experiments.Djpeg_exp.render_fig9 cells)
        | `Fig10 ->
          let series = Sempe_experiments.Fig10.sweep () in
          if json then print_json (Sempe_experiments.Fig10.to_json series)
          else if csv then print_string (Sempe_experiments.Fig10.csv series)
          else begin
            print_endline (Sempe_experiments.Fig10.render_a series);
            print_endline (Sempe_experiments.Fig10.render_b series)
          end
        | `Ablation ->
          let m = Sempe_experiments.Ablation.measure () in
          if json then print_json (Sempe_experiments.Ablation.to_json m)
          else print_endline (Sempe_experiments.Ablation.render m)
        | `Sampling ->
          let cells = Sempe_experiments.Sampling_exp.collect () in
          if json then print_json (Sempe_experiments.Sampling_exp.to_json cells)
          else if csv then
            print_string (Sempe_experiments.Sampling_exp.csv cells)
          else print_endline (Sempe_experiments.Sampling_exp.render cells))
  in
  let exp_arg =
    let experiments =
      [ ("table1", `Table1); ("fig8", `Fig8); ("fig9", `Fig9);
        ("fig10", `Fig10); ("ablation", `Ablation); ("sampling", `Sampling) ]
    in
    Arg.(
      required
      & pos 0 (some (enum experiments)) None
      & info [] ~docv:"EXPERIMENT")
  in
  let csv_arg =
    Arg.(
      value & flag
      & info [ "csv" ]
          ~doc:
            "Emit machine-readable CSV instead of tables (fig8, fig9, fig10, \
             sampling).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Regenerate one paper table/figure (table1, fig8, fig9, fig10, \
          ablation) or the sampled-simulation validation grid (sampling).")
    Term.(const run $ exp_arg $ csv_arg $ json_arg $ jobs_arg $ progress_arg)

(* ---- asm-run: execute an assembly file ---- *)

let asm_run_cmd =
  let run scheme path json =
    let ic = open_in path in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    let prog = Sempe_isa.Asm.parse src in
    let { Run.exec = res; timing = report } =
      Run.simulate ~support:(Scheme.support scheme) ~mem_words:(1 lsl 16) prog
    in
    if json then
      print_json
        (Json.Obj
           [
             ("workload", Json.Str "asm-run");
             ("path", Json.Str path);
             ("scheme", Json.Str (Scheme.name scheme));
             ("instructions", Json.Int res.Sempe_core.Exec.dyn_instrs);
             ("rv", Json.Int res.Sempe_core.Exec.regs.(Sempe_isa.Reg.rv));
             ("max_nesting", Json.Int res.Sempe_core.Exec.max_nesting);
             ("report", Report.to_json report);
           ])
    else begin
      Printf.printf "%s: %d instructions, rv = %d, max nesting %d\n\n" path
        res.Sempe_core.Exec.dyn_instrs
        res.Sempe_core.Exec.regs.(Sempe_isa.Reg.rv)
        res.Sempe_core.Exec.max_nesting;
      print_endline (Report.render report)
    end
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s")
  in
  Cmd.v
    (Cmd.info "asm-run" ~doc:"Assemble and simulate a .s file (see lib/isa/asm.mli for syntax).")
    Term.(const run $ scheme_arg $ path $ json_arg)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let module Fuzz = Sempe_fuzz.Fuzz in
  let module Oracle = Sempe_fuzz.Oracle in
  let run seed count budget oracle_names jobs corpus no_corpus no_minimize
      fault_name max_failures json =
    let oracles =
      match oracle_names with
      | [] -> Oracle.all
      | names ->
        List.map
          (fun name ->
            match Oracle.find name with
            | Some o -> o
            | None ->
              Printf.eprintf "unknown oracle %S (expected one of: %s)\n" name
                (String.concat ", " Oracle.names);
              exit 124)
          names
    in
    let fault =
      match Sempe_core.Exec.fault_of_string fault_name with
      | Some f -> f
      | None ->
        Printf.eprintf
          "unknown fault %S (none, skip-restore, skip-nt-restore)\n"
          fault_name;
        exit 124
    in
    (* -j is an upper bound: the outcome is worker-count-independent by
       construction, so oversubscribing domains past the host's cores
       (catastrophic for allocation-heavy jobs under OCaml 5's
       stop-the-world minor GC) would burn time without changing a byte
       of the output. *)
    let workers =
      if jobs <= 0 then Pool.default_workers ()
      else min jobs (Pool.default_workers ())
    in
    let config =
      {
        Fuzz.default_config with
        Fuzz.seed;
        count;
        budget_s = budget;
        oracles;
        workers;
        corpus_dir = (if no_corpus then None else Some corpus);
        minimize = not no_minimize;
        max_failures;
        ctx = { Oracle.default_ctx with Oracle.fault };
      }
    in
    let outcome = Fuzz.run config in
    (* wall-clock goes to stderr: stdout stays byte-identical at any -j *)
    Printf.eprintf
      "[fuzz] %d cases (%d generated, %d mutants, %d replayed), %d \
       execution shapes, %d failure(s), %.1fs wall, %d workers\n%!"
      outcome.Fuzz.executed outcome.Fuzz.generated outcome.Fuzz.mutants
      outcome.Fuzz.replayed outcome.Fuzz.features
      (List.length outcome.Fuzz.failures)
      outcome.Fuzz.wall_s workers;
    if json then print_json (Fuzz.to_json outcome)
    else print_string (Fuzz.render config outcome);
    if outcome.Fuzz.failures <> [] then exit 1
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed.")
  in
  let count =
    Arg.(
      value & opt int 200
      & info [ "count"; "n" ] ~docv:"N"
          ~doc:"Cases to execute (fresh plus feedback mutants).")
  in
  let budget =
    Arg.(
      value & opt (some float) None
      & info [ "budget-s" ] ~docv:"SECONDS"
          ~doc:
            "Stop after this much wall time (checked between rounds; a \
             budget-limited run is not reproducible — use $(b,--count) \
             alone for that).")
  in
  let oracle_names =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            "Oracle to check (repeatable): state, trace, timing, sampling, \
             checkpoint. Default: all of them.")
  in
  let corpus =
    Arg.(
      value & opt string "corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Reproducer directory: entries replay before any new case, and \
             minimized failures are persisted here.")
  in
  let no_corpus =
    Arg.(
      value & flag
      & info [ "no-corpus" ] ~doc:"Neither replay nor persist reproducers.")
  in
  let no_minimize =
    Arg.(
      value & flag
      & info [ "no-minimize" ]
          ~doc:"Report failures as generated, without delta debugging.")
  in
  let fault =
    Arg.(
      value & opt string "none"
      & info [ "fault" ] ~docv:"FAULT"
          ~doc:
            "Inject a protocol bug (skip-restore, skip-nt-restore) to \
             self-test the oracles; the run should then fail.")
  in
  let max_failures =
    Arg.(
      value & opt int 5
      & info [ "max-failures" ] ~docv:"N"
          ~doc:"Stop after this many distinct failures.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random programs with secret branches are \
          checked against the reference interpreter, across schemes, and \
          against the timing/sampling/checkpoint invariants. Exits \
          non-zero if any oracle is violated; failures are minimized and \
          persisted as corpus reproducers.")
    Term.(
      const run $ seed $ count $ budget $ oracle_names $ jobs_arg $ corpus
      $ no_corpus $ no_minimize $ fault $ max_failures $ json_arg)

(* ---- disasm ---- *)

let disasm_cmd =
  let run scheme workload =
    Format.printf "%a@." Sempe_isa.Program.pp
      (Workload.build scheme workload).Harness.prog
  in
  (* Only the program matters here: kernels compile at W=1, one
     iteration, and no secret inputs are read. *)
  let workload =
    Term.term_result'
      Term.(
        const (fun which ->
            select which ~width:1 ~iters:1 ~leaf:1 ~blocks:1 ~seed:0 ~key:0)
        $ Arg.(
            value & pos 0 string "rsa"
            & info [] ~docv:"WORKLOAD" ~doc:"rsa, djpeg, or a kernel name."))
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Compile a workload under a scheme and print the assembly.")
    Term.(const run $ scheme_arg $ workload)

(* ---- serve / client / loadgen: the simulation service ---- *)

let connect_arg =
  Arg.(
    value & opt string "sempe.sock"
    & info [ "connect"; "c" ] ~docv:"ADDR"
        ~doc:
          "Daemon address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare \
           unix socket path.")

let parse_addr s =
  match Wire.addr_of_string s with
  | Ok addr -> addr
  | Error msg ->
    Printf.eprintf "bad address %S: %s\n" s msg;
    exit 124

let serve_cmd =
  let run listen workers result_entries plan_entries timeout_s max_connections
      store_dir verbose =
    let addr = parse_addr listen in
    (* Leakage requests sweep the scheme grid on the process-wide Batch
       pool; keep it sequential so concurrent requests do not
       oversubscribe domains (responses are jobs-independent anyway). *)
    Batch.set_jobs 1;
    let config =
      {
        Server.workers = max 1 workers;
        result_entries = max 1 result_entries;
        plan_entries = max 1 plan_entries;
        timeout_s;
        max_connections = max 1 max_connections;
        store_dir;
        verbose;
      }
    in
    let t = Server.start ~config addr in
    Printf.eprintf "sempe-sim serve: listening on %s (%d workers)\n%!"
      (Wire.addr_to_string (Server.addr t))
      config.Server.workers;
    let on_signal _ = Server.request_stop t in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Server.wait t;
    Printf.eprintf "sempe-sim serve: stopped\n%!"
  in
  let listen =
    Arg.(
      value & opt string "sempe.sock"
      & info [ "listen"; "l" ] ~docv:"ADDR"
          ~doc:
            "Listen address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare \
             unix socket path.")
  in
  let workers =
    Arg.(
      value & opt int Server.default_config.Server.workers
      & info [ "workers"; "j" ] ~docv:"N"
          ~doc:"Simulation worker domains (requests queue past this).")
  in
  let result_entries =
    Arg.(
      value & opt int Server.default_config.Server.result_entries
      & info [ "result-entries" ] ~docv:"N" ~doc:"Response cache capacity.")
  in
  let plan_entries =
    Arg.(
      value & opt int Server.default_config.Server.plan_entries
      & info [ "plan-entries" ] ~docv:"N"
          ~doc:"Sampling checkpoint-plan cache capacity.")
  in
  let timeout =
    Arg.(
      value & opt float Server.default_config.Server.timeout_s
      & info [ "timeout-s" ] ~docv:"SECONDS"
          ~doc:
            "Per-request reply deadline (the job keeps running and feeds \
             the cache; only the reply gives up). 0 disables.")
  in
  let max_connections =
    Arg.(
      value & opt int Server.default_config.Server.max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Concurrent connections; excess clients get a busy error.")
  in
  let store_dir =
    Arg.(
      value & opt (some string) None
      & info [ "store-dir" ] ~docv:"DIR"
          ~doc:
            "Persistent cache store: both caches are reloaded from $(docv) \
             on start and flushed back on graceful shutdown, so a restarted \
             daemon serves warm from its first request.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Log one line per served request to stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the simulation daemon: a length-prefixed JSON protocol over a \
          unix or TCP socket, with content-addressed response and \
          checkpoint-plan caches (cost-aware eviction, optional on-disk \
          persistence) and in-flight request coalescing. The daemon trusts \
          its clients; see the Serving section of the README.")
    Term.(
      const run $ listen $ workers $ result_entries $ plan_entries $ timeout
      $ max_connections $ store_dir $ verbose)

let client_cmd =
  let run connect op workload scheme strict_oob interval coverage warmup top
      fuzz_seed count =
    let request =
      match op with
      | "ping" | "stats" | "shutdown" -> None
      | "simulate" -> Some (Api.Simulate { scheme; workload; strict_oob })
      | "sample" ->
        Some
          (Api.Sample
             { scheme; workload; strict_oob;
               params = { Api.interval; coverage; warmup } })
      | "profile" -> Some (Api.Profile { scheme; workload; top })
      | "leakage" -> Some Api.Leakage
      | "fuzz-smoke" -> Some (Api.Fuzz_smoke { seed = fuzz_seed; count })
      | other ->
        Printf.eprintf
          "unknown op %S (ping, stats, shutdown, simulate, sample, profile, \
           leakage, fuzz-smoke)\n"
          other;
        exit 124
    in
    let conn =
      try Client.connect (parse_addr connect)
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot connect to %s: %s\n" connect
          (Unix.error_message e);
        exit 1
    in
    let result =
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          match request with
          | Some req -> Client.call conn req
          | None -> (
            match op with
            | "ping" -> Result.map (fun () -> Json.Str "pong") (Client.ping conn)
            | "stats" -> Client.stats conn
            | _ -> Result.map (fun () -> Json.Bool true) (Client.shutdown conn)))
    in
    match result with
    | Ok json -> print_json json
    | Error { Client.code; message } ->
      Printf.eprintf "error [%s]: %s\n" code message;
      exit 1
  in
  let op =
    Arg.(
      value & pos 0 string "ping"
      & info [] ~docv:"OP"
          ~doc:
            "ping, stats, shutdown, simulate, sample, profile, leakage or \
             fuzz-smoke.")
  in
  let workload =
    selected_workload
      Arg.(
        value & opt string "rsa"
        & info [ "workload" ] ~docv:"WORKLOAD"
            ~doc:"rsa, djpeg, or a microbenchmark kernel name.")
  in
  let fuzz_seed =
    Arg.(
      value & opt int 1
      & info [ "fuzz-seed" ] ~docv:"SEED" ~doc:"Master seed (fuzz-smoke).")
  in
  let count =
    Arg.(
      value & opt int 200
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Cases to execute (fuzz-smoke).")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows per profile table (profile).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running daemon and print the result \
          document — the same bytes the matching batch subcommand's \
          $(b,--json) mode prints.")
    Term.(
      const run $ connect_arg $ op $ workload $ scheme_arg $ strict_oob_arg
      $ interval_arg $ coverage_arg $ warmup_arg $ top $ fuzz_seed $ count)

let loadgen_cmd =
  let run connect clients requests mix_names rate json =
    let simulate scheme workload =
      Api.Simulate { scheme; workload; strict_oob = false }
    in
    let sample workload =
      Api.Sample
        {
          scheme = Scheme.Sempe;
          workload;
          strict_oob = false;
          params = { Api.interval = 2000; coverage = 0.25; warmup = 500 };
        }
    in
    let rsa = Api.Rsa { key = Rsa.default_key } in
    let mix =
      List.concat_map
        (fun name ->
          match String.lowercase_ascii name with
          | "simulate" ->
            [
              simulate Scheme.Sempe
                (Api.Microbench
                   { kernel = "fibonacci"; width = 4; iters = 3; leaf = 1 });
              simulate Scheme.Baseline
                (Api.Microbench { kernel = "ones"; width = 4; iters = 3; leaf = 2 });
              simulate Scheme.Sempe (Api.Djpeg { format = "PPM"; blocks = 4; seed = 42 });
              simulate Scheme.Cte rsa;
            ]
          | "sample" ->
            [ sample rsa; sample (Api.Djpeg { format = "PPM"; blocks = 8; seed = 7 }) ]
          | "profile" -> [ Api.Profile { scheme = Scheme.Sempe; workload = rsa; top = 10 } ]
          | "leakage" -> [ Api.Leakage ]
          | "fuzz" -> [ Api.Fuzz_smoke { seed = 1; count = 25 } ]
          | other ->
            Printf.eprintf
              "unknown mix element %S (simulate, sample, profile, leakage, \
               fuzz)\n"
              other;
            exit 124)
        mix_names
    in
    let outcome =
      Loadgen.run (parse_addr connect)
        {
          Loadgen.clients;
          requests_per_client = requests;
          mix;
          rate_hz = rate;
        }
    in
    if json then print_json (Loadgen.to_json outcome)
    else print_endline (Loadgen.render outcome);
    if outcome.Loadgen.dropped > 0 then exit 1
  in
  let clients =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let requests =
    Arg.(
      value & opt int 12
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let mix =
    Arg.(
      value
      & opt (list string) [ "simulate"; "sample" ]
      & info [ "mix" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated request classes to cycle through: simulate, \
             sample, profile, leakage, fuzz.")
  in
  let rate =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ] ~docv:"HZ"
          ~doc:
            "Open-loop arrival rate per client (latency measured from the \
             scheduled send time). Default: closed loop.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running daemon with N concurrent clients replaying a \
          request mix; report latency percentiles, throughput, drop count \
          and the daemon-side cache hit rate. Exits non-zero if any \
          request was dropped.")
    Term.(const run $ connect_arg $ clients $ requests $ mix $ rate $ json_arg)

(* ---- router / fleet: the sharded serving fleet ---- *)

let router_cmd =
  let run listen shards replicas retries backoff_s health_s verbose =
    if shards = [] then begin
      Printf.eprintf "router: at least one --shard ADDR is required\n";
      exit 124
    end;
    let addr = parse_addr listen in
    let shard_addrs = List.map parse_addr shards in
    let config =
      {
        Router.replicas = max 1 replicas;
        retries = max 1 retries;
        backoff_s = Float.max 0. backoff_s;
        health_period_s = Float.max 0.05 health_s;
        verbose;
      }
    in
    let t = Router.start ~config ~shards:shard_addrs addr in
    Printf.eprintf "sempe-sim router: listening on %s, %d shard(s)\n%!"
      (Wire.addr_to_string (Router.addr t))
      (List.length shard_addrs);
    let on_signal _ = Router.request_stop t in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Router.wait t;
    Printf.eprintf "sempe-sim router: stopped\n%!"
  in
  let listen =
    Arg.(
      value & opt string "sempe-router.sock"
      & info [ "listen"; "l" ] ~docv:"ADDR"
          ~doc:
            "Listen address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare \
             unix socket path.")
  in
  let shards =
    Arg.(
      value & opt_all string []
      & info [ "shard" ] ~docv:"ADDR"
          ~doc:"A shard daemon's address; repeat once per shard.")
  in
  let replicas =
    Arg.(
      value & opt int Router.default_config.Router.replicas
      & info [ "replicas" ] ~docv:"N"
          ~doc:"Virtual nodes per shard on the consistent-hash ring.")
  in
  let retries =
    Arg.(
      value & opt int Router.default_config.Router.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:"Connection attempts per shard before failing over.")
  in
  let backoff =
    Arg.(
      value & opt float Router.default_config.Router.backoff_s
      & info [ "backoff-s" ] ~docv:"SECONDS"
          ~doc:"Delay before the first retry; doubles per attempt.")
  in
  let health =
    Arg.(
      value & opt float Router.default_config.Router.health_period_s
      & info [ "health-period-s" ] ~docv:"SECONDS"
          ~doc:"How often dead shards are pinged back into rotation.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Log routing decisions and shard state.")
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:
         "Front a fleet of $(b,serve) shards behind one address: requests \
          are consistent-hashed onto shards (so repeats always hit the same \
          shard's caches) and relayed byte-for-byte, with retry, failover \
          and health checking. The $(b,shutdown) op drains the whole fleet.")
    Term.(
      const run $ listen $ shards $ replicas $ retries $ backoff $ health
      $ verbose)

let fleet_cmd =
  let status_string = function
    | Unix.WEXITED n -> Printf.sprintf "exit %d" n
    | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
    | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s
  in
  let run listen shards dir workers result_entries plan_entries store verbose =
    let shards = max 1 shards in
    (try Unix.mkdir dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let self = Sys.executable_name in
    let shard_sock i = Filename.concat dir (Printf.sprintf "shard-%d.sock" i) in
    let children =
      List.init shards (fun i ->
          let args =
            [
              "serve"; "--listen"; shard_sock i;
              "--workers"; string_of_int (max 1 workers);
              "--result-entries"; string_of_int (max 1 result_entries);
              "--plan-entries"; string_of_int (max 1 plan_entries);
            ]
            @ (if store then
                 [ "--store-dir";
                   Filename.concat dir (Printf.sprintf "shard-%d.store" i) ]
               else [])
            @ if verbose then [ "--verbose" ] else []
          in
          Subproc.spawn
            ~log:(Filename.concat dir (Printf.sprintf "shard-%d.log" i))
            ~label:(Printf.sprintf "shard-%d" i)
            self args)
    in
    let kill_all () =
      List.iter (fun c -> ignore (Subproc.terminate c)) children
    in
    (* Every shard must bind before the router opens for business. *)
    let deadline = Unix.gettimeofday () +. 30. in
    List.iteri
      (fun i child ->
        let sock = shard_sock i in
        let rec poll () =
          if Sys.file_exists sock then ()
          else if not (Subproc.alive child) then begin
            Printf.eprintf "fleet: %s exited before binding %s (see %s)\n"
              (Subproc.label child) sock
              (Option.value ~default:"stderr" (Subproc.log_path child));
            kill_all ();
            exit 1
          end
          else if Unix.gettimeofday () > deadline then begin
            Printf.eprintf "fleet: timed out waiting for %s\n" sock;
            kill_all ();
            exit 1
          end
          else begin
            Unix.sleepf 0.05;
            poll ()
          end
        in
        poll ())
      children;
    let addr = parse_addr listen in
    let config = { Router.default_config with Router.verbose } in
    let t =
      Router.start ~config
        ~shards:(List.init shards (fun i -> Server.Unix_sock (shard_sock i)))
        addr
    in
    Printf.eprintf "sempe-sim fleet: %d shard(s) up, router on %s\n%!" shards
      (Wire.addr_to_string (Router.addr t));
    let on_signal _ = Router.request_stop t in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Router.wait t;
    (* Belt and braces: a client [shutdown] already drained the shards;
       a signal has not. Either way every child gets a graceful stop (the
       TERM window is where a shard flushes its store). *)
    Router.drain_fleet t;
    let failed = ref false in
    List.iter
      (fun c ->
        match Subproc.terminate ~grace_s:30. c with
        | Unix.WEXITED 0 -> ()
        | st ->
          failed := true;
          Printf.eprintf "fleet: %s ended with %s\n" (Subproc.label c)
            (status_string st))
      children;
    Printf.eprintf "sempe-sim fleet: stopped\n%!";
    if !failed then exit 1
  in
  let listen =
    Arg.(
      value & opt string "sempe-router.sock"
      & info [ "listen"; "l" ] ~docv:"ADDR"
          ~doc:"Router listen address (the fleet's single front door).")
  in
  let shards =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N" ~doc:"Number of shard daemons to run.")
  in
  let dir =
    Arg.(
      value & opt string "sempe-fleet"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Runtime directory: shard sockets, per-shard logs and (with \
             $(b,--store)) per-shard cache stores live here.")
  in
  let workers =
    Arg.(
      value & opt int Server.default_config.Server.workers
      & info [ "workers"; "j" ] ~docv:"N"
          ~doc:"Simulation worker domains per shard.")
  in
  let result_entries =
    Arg.(
      value & opt int Server.default_config.Server.result_entries
      & info [ "result-entries" ] ~docv:"N"
          ~doc:"Response cache capacity per shard.")
  in
  let plan_entries =
    Arg.(
      value & opt int Server.default_config.Server.plan_entries
      & info [ "plan-entries" ] ~docv:"N"
          ~doc:"Checkpoint-plan cache capacity per shard.")
  in
  let store =
    Arg.(
      value & flag
      & info [ "store" ]
          ~doc:
            "Give each shard a persistent cache store under $(b,--dir), \
             flushed on drain and reloaded on the next start.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Verbose shards and router.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run a self-contained serving fleet: N $(b,serve) shard processes \
          on unix sockets under a runtime directory, fronted by an \
          in-process $(b,router). SIGTERM (or a client $(b,shutdown)) \
          drains every shard — in-flight work finishes and cache stores \
          are flushed — before the fleet exits.")
    Term.(
      const run $ listen $ shards $ dir $ workers $ result_entries
      $ plan_entries $ store $ verbose)

let () =
  let info =
    Cmd.info "sempe-sim" ~version:"1.0"
      ~doc:"Cycle-level simulator for the SeMPE secure multi-path execution architecture."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            config_cmd; microbench_cmd; djpeg_cmd; rsa_cmd; sample_cmd;
            leakage_cmd; report_cmd; profile_cmd; trace_cmd; disasm_cmd;
            asm_run_cmd; fuzz_cmd; serve_cmd; router_cmd; fleet_cmd;
            client_cmd; loadgen_cmd;
          ]))
