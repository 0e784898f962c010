(* Outside-in replay of [Api.perform]: the same library calls, in the same
   order, with a span around each. The traced run renders the replay's
   document and requires it byte-equal to [Api.perform]'s, so the spans
   time exactly the work a served request does.

   Besides the document, a replay returns the timing reports and the
   compiled programs it produced, for the per-layer rates. *)

module Api = Sempe_serve.Api
module Json = Sempe_obs.Json
module Report = Sempe_obs.Report
module Profile = Sempe_obs.Profile
module Sink = Sempe_obs.Sink
module Scheme = Sempe_core.Scheme
module Exec = Sempe_core.Exec
module Timing = Sempe_pipeline.Timing
module Config = Sempe_pipeline.Config
module Harness = Sempe_workloads.Harness
module MB = Sempe_workloads.Microbench
module Kernels = Sempe_workloads.Kernels
module Djpeg = Sempe_workloads.Djpeg
module Rsa = Sempe_workloads.Rsa
module Codegen = Sempe_lang.Codegen

let ct_of_scheme = function
  | Scheme.Cte | Scheme.Raccoon | Scheme.Mto -> true
  | Scheme.Baseline | Scheme.Sempe | Scheme.Sempe_on_legacy -> false

let kernel name = Option.get (Kernels.by_name name)

let format name =
  match String.uppercase_ascii name with
  | "PPM" -> Djpeg.Ppm
  | "GIF" -> Djpeg.Gif
  | _ -> Djpeg.Bmp

(* Source program, initial state and JSON tags of a workload. *)
let setup scheme (w : Api.workload) =
  Span.run "workloads.setup" (fun () ->
      let sname = ("scheme", Json.Str (Scheme.name scheme)) in
      match w with
      | Api.Microbench { kernel = k; width; iters; leaf } ->
        let spec = { MB.kernel = kernel k; width; iters } in
        ( MB.program ~ct:(ct_of_scheme scheme) spec,
          MB.secrets_for_leaf ~width ~leaf,
          [],
          [ ("workload", Json.Str "microbench"); ("kernel", Json.Str k);
            ("width", Json.Int width); ("iters", Json.Int iters);
            ("leaf", Json.Int leaf); sname ] )
      | Api.Djpeg { format = f; blocks; seed } ->
        let fmt = format f in
        let globals, arrays = Djpeg.inputs fmt ~seed ~blocks in
        ( Djpeg.program fmt, globals, arrays,
          [ ("workload", Json.Str "djpeg");
            ("format", Json.Str (Djpeg.format_name fmt));
            ("blocks", Json.Int blocks); ("seed", Json.Int seed); sname ] )
      | Api.Rsa { key } ->
        let globals, arrays = Rsa.inputs ~key ~base:1234 ~modulus:99991 in
        ( Rsa.program, globals, arrays,
          [ ("workload", Json.Str "rsa"); ("key", Json.Int key); sname ] ))

let describe = function
  | Api.Rsa { key } -> Printf.sprintf "rsa key=0x%04x" key
  | Api.Djpeg { format = f; blocks; seed } ->
    Printf.sprintf "djpeg %s blocks=%d seed=%d"
      (Djpeg.format_name (format f)) blocks seed
  | Api.Microbench { kernel; width; iters; leaf } ->
    Printf.sprintf "%s W=%d iters=%d leaf=%d" kernel width iters leaf

let build scheme src =
  let ast = Span.run "lang.transform" (fun () -> Harness.transform scheme src) in
  let prog, layout = Span.run "lang.codegen" (fun () -> Codegen.compile ast) in
  { Harness.scheme; ast; prog; layout }

let exec_config ?(forgiving_oob = true) scheme =
  let machine = Config.default in
  {
    Exec.default_config with
    Exec.support = Scheme.support scheme;
    mem_words = 1 lsl 20;
    spm = machine.Config.spm;
    jbtable_entries = machine.Config.jbtable_entries;
    forgiving_oob;
  }

type run = {
  exec : Exec.result;
  report : Timing.report;
  built : Harness.built;
  init_mem : int array -> unit;
  detailed_s : float;  (** host seconds in [Exec.finish] *)
  minor_words : float;  (** words allocated by [Exec.finish] *)
}

(* [Harness.run] split at its layer boundaries. *)
let run ?forgiving_oob ?probe ~globals ~arrays built =
  let timing =
    Span.run "pipeline.timing_create" (fun () ->
        Timing.create ~config:Config.default ?probe ())
  in
  let init_mem = Harness.init_mem_of built ~globals ~arrays in
  let session =
    Span.run "core.machine_setup" (fun () ->
        Exec.start
          ~config:(exec_config ?forgiving_oob built.Harness.scheme)
          ~init_mem ~sink:(Timing.feed timing) built.Harness.prog)
  in
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let exec = Span.run "pipeline.detailed_run" (fun () -> Exec.finish session) in
  let detailed_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let report = Span.run "pipeline.report" (fun () -> Timing.report timing) in
  { exec; report; built; init_mem; detailed_s; minor_words }

let return_value r = r.exec.Exec.regs.(Sempe_isa.Reg.rv)
let render doc = Span.run "obs.render" (fun () -> Json.to_string (doc ()))

(* Returns the rendered document and the detailed runs it took. *)
let perform ?plan ?plan_out (req : Api.request) =
  Span.run "serve.Api.perform" (fun () ->
      match req with
      | Api.Simulate { scheme; workload; strict_oob } ->
        let src, globals, arrays, tags = setup scheme workload in
        let forgiving_oob = not strict_oob in
        let main = run ~forgiving_oob ~globals ~arrays (build scheme src) in
        let runs, fields =
          match workload with
          | Api.Microbench { kernel = k; width; iters; _ } ->
            let base_src =
              Span.run "workloads.setup" (fun () ->
                  MB.program ~ct:false { MB.kernel = kernel k; width; iters })
            in
            let base =
              run ~forgiving_oob ~globals ~arrays:[]
                (build Scheme.Baseline base_src)
            in
            ( [ main; base ],
              fun () ->
                [ ("checksum", Json.Int (return_value main));
                  ( "slowdown_vs_baseline",
                    Json.Float
                      (Sempe_util.Stats.ratio ~num:main.report.Timing.cycles
                         ~den:base.report.Timing.cycles) );
                  ("report", Report.to_json main.report) ] )
          | Api.Djpeg _ ->
            ( [ main ],
              fun () ->
                [ ("checksum", Json.Int (return_value main));
                  ("report", Report.to_json main.report) ] )
          | Api.Rsa { key } ->
            ( [ main ],
              fun () ->
                [ ("result", Json.Int (return_value main));
                  ( "expected",
                    Json.Int (Rsa.reference ~key ~base:1234 ~modulus:99991) );
                  ("report", Report.to_json main.report) ] )
        in
        (render (fun () -> Json.Obj (tags @ fields ())), runs)
      | Api.Profile { scheme; workload; top } ->
        let src, globals, arrays, _ = setup scheme workload in
        let profile = Profile.create () in
        let sink = Sink.of_probe (Profile.probe profile) in
        let r = run ~probe:sink.Sink.probe ~globals ~arrays (build scheme src) in
        sink.Sink.close ();
        ( render (fun () ->
              Json.Obj
                [ ("workload", Json.Str (describe workload));
                  ("scheme", Json.Str (Scheme.name scheme));
                  ("report", Report.to_json r.report);
                  ("profile", Profile.to_json ~n:top profile) ]),
          [ r ] )
      | Api.Sample { scheme; workload; strict_oob; params } ->
        let src, globals, arrays, tags = setup scheme workload in
        let built = build scheme src in
        let config =
          {
            Sempe_sampling.Sampling.default_config with
            Sempe_sampling.Sampling.interval = params.Api.interval;
            coverage = params.Api.coverage;
            warmup = params.Api.warmup;
          }
        in
        let est =
          Span.run "sampling.estimate" (fun () ->
              Harness.sample ~forgiving_oob:(not strict_oob) ~globals ~arrays
                ~config ~workers:1 ?plan ?plan_out built)
        in
        ( render (fun () ->
              Json.Obj
                (tags @ [ ("sampling", Sempe_sampling.Sampling.to_json est) ])),
          [] )
      | Api.Leakage | Api.Fuzz_smoke _ ->
        invalid_arg "Replay.perform: not a workload request")
