module Json = Sempe_obs.Json
module Report = Sempe_obs.Report
module Profile = Sempe_obs.Profile
module Sink = Sempe_obs.Sink
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Sampling = Sempe_sampling.Sampling
module Harness = Sempe_workloads.Harness
module Workload = Sempe_workloads.Workload
module Kernels = Sempe_workloads.Kernels
module Djpeg = Sempe_workloads.Djpeg
module Rsa = Sempe_workloads.Rsa
module Pool = Sempe_util.Pool
module Fuzz = Sempe_fuzz.Fuzz
module Program = Sempe_isa.Program
module Security_exp = Sempe_experiments.Security_exp

type workload = Workload.t =
  | Microbench of { kernel : string; width : int; iters : int; leaf : int }
  | Djpeg of { format : string; blocks : int; seed : int }
  | Rsa of { key : int }

type sample_params = { interval : int; coverage : float; warmup : int }

type request =
  | Simulate of { scheme : Scheme.t; workload : workload; strict_oob : bool }
  | Sample of {
      scheme : Scheme.t;
      workload : workload;
      strict_oob : bool;
      params : sample_params;
    }
  | Profile of { scheme : Scheme.t; workload : workload; top : int }
  | Leakage
  | Fuzz_smoke of { seed : int; count : int }

type result =
  | Simulated of {
      scheme : Scheme.t;
      workload : workload;
      outcome : Run.outcome;
      baseline : Run.outcome option;
    }
  | Sampled of {
      scheme : Scheme.t;
      workload : workload;
      estimate : Sampling.estimate;
    }
  | Profiled of {
      scheme : Scheme.t;
      workload : workload;
      top : int;
      report : Sempe_pipeline.Timing.report;
      profile : Profile.t;
      program : Program.t;
    }
  | Leakage_matrix of Security_exp.result list
  | Fuzzed of { config : Fuzz.config; outcome : Fuzz.outcome }

let run ?workers ?plan ?plan_out request =
  let checked workload =
    match Workload.check workload with
    | Ok w -> w
    | Error msg -> invalid_arg ("Api: " ^ msg)
  in
  match request with
  | Simulate { scheme; workload; strict_oob } ->
    let workload = checked workload in
    let forgiving_oob = not strict_oob in
    let outcome =
      Workload.run ~forgiving_oob (Workload.build scheme workload) workload
    in
    (* The microbenchmark reports its slowdown against the unprotected
       baseline. *)
    let baseline =
      match workload with
      | Microbench _ ->
        Some
          (Workload.run ~forgiving_oob
             (Workload.build Scheme.Baseline workload)
             workload)
      | Djpeg _ | Rsa _ -> None
    in
    Simulated { scheme; workload; outcome; baseline }
  | Sample { scheme; workload; strict_oob; params } ->
    let workload = checked workload in
    let globals, arrays = Workload.inputs workload in
    let { interval; coverage; warmup } = params in
    let config =
      { Sampling.default_config with Sampling.interval; coverage; warmup }
    in
    let estimate =
      Harness.sample ~forgiving_oob:(not strict_oob) ~globals ~arrays ~config
        ?workers ?plan ?plan_out (Workload.build scheme workload)
    in
    Sampled { scheme; workload; estimate }
  | Profile { scheme; workload; top } ->
    let workload = checked workload in
    let built = Workload.build scheme workload in
    let profile = Profile.create () in
    let sink = Sink.of_probe (Profile.probe profile) in
    let outcome = Workload.run ~sink built workload in
    sink.Sink.close ();
    let report = outcome.Run.timing and program = built.Harness.prog in
    Profiled { scheme; workload; top; report; profile; program }
  | Leakage -> Leakage_matrix (Security_exp.measure ())
  | Fuzz_smoke { seed; count } ->
    (* The corpus-less CLI invocation: all oracles, minimization on, the
       default failure cap. The outcome is worker-count-independent by
       construction, so [workers] only bounds wall time. *)
    let workers =
      match workers with
      | None -> Pool.default_workers ()
      | Some w -> max 1 (min w (Pool.default_workers ()))
    in
    let config = { Fuzz.default_config with Fuzz.seed; count; workers } in
    Fuzzed { config; outcome = Fuzz.run config }

(* ---- rendering: one value, two views ---- *)

(* The identifying JSON tags of a workload run. *)
let tags scheme workload =
  (match workload with
   | Microbench { kernel; width; iters; leaf } ->
     [
       ("workload", Json.Str "microbench");
       ("kernel", Json.Str kernel);
       ("width", Json.Int width);
       ("iters", Json.Int iters);
       ("leaf", Json.Int leaf);
     ]
   | Djpeg { format; blocks; seed } ->
     [
       ("workload", Json.Str "djpeg");
       ("format", Json.Str format);
       ("blocks", Json.Int blocks);
       ("seed", Json.Int seed);
     ]
   | Rsa { key } -> [ ("workload", Json.Str "rsa"); ("key", Json.Int key) ])
  @ [ ("scheme", Json.Str (Scheme.name scheme)) ]

(* The one-line text heading of a workload run. *)
let headline scheme workload =
  let scheme = Scheme.name scheme in
  match workload with
  | Microbench { kernel; width; iters; leaf } ->
    Printf.sprintf "microbenchmark %s, W=%d, iters=%d, scheme=%s, true leaf=%d"
      kernel width iters scheme leaf
  | Djpeg { format; blocks; seed } ->
    Printf.sprintf "djpeg -> %s, %d blocks, scheme=%s, image seed=%d" format
      blocks scheme seed
  | Rsa { key } ->
    Printf.sprintf "modexp (Figure 1), key=0x%04x, scheme=%s" key scheme

let rsa_expected key = Rsa.reference ~key ~base:Rsa.base ~modulus:Rsa.modulus

let to_json = function
  | Simulated { scheme; workload; outcome; baseline } ->
    let value = Json.Int (Harness.return_value outcome) in
    Json.Obj
      (tags scheme workload
      @ (match workload with
        | Rsa { key } ->
          [ ("result", value); ("expected", Json.Int (rsa_expected key)) ]
        | Microbench _ | Djpeg _ -> [ ("checksum", value) ])
      @ (match baseline with
        | None -> []
        | Some baseline ->
          [ ("slowdown_vs_baseline",
              Json.Float (Run.overhead ~baseline outcome)) ])
      @ [ ("report", Report.to_json outcome.Run.timing) ])
  | Sampled { scheme; workload; estimate } ->
    Json.Obj (tags scheme workload @ [ ("sampling", Sampling.to_json estimate) ])
  | Profiled { scheme; workload; top; report; profile; _ } ->
    Json.Obj
      [
        ("workload", Json.Str (Workload.describe workload));
        ("scheme", Json.Str (Scheme.name scheme));
        ("report", Report.to_json report);
        ("profile", Profile.to_json ~n:top profile);
      ]
  | Leakage_matrix results -> Security_exp.to_json results
  | Fuzzed { outcome; _ } -> Fuzz.to_json outcome

let render = function
  | Simulated { scheme; workload; outcome; baseline } ->
    let value = Harness.return_value outcome in
    headline scheme workload ^ "\n"
    ^ (match workload with
      | Rsa { key } ->
        Printf.sprintf "result = %d (expected %d)\n\n" value (rsa_expected key)
      | Microbench _ | Djpeg _ -> Printf.sprintf "checksum = %d\n\n" value)
    ^ Report.render outcome.Run.timing ^ "\n"
    ^ (match baseline with
      | None -> ""
      | Some baseline ->
        Printf.sprintf "\nslowdown vs baseline: %s\n"
          (Sempe_util.Tablefmt.times (Run.overhead ~baseline outcome)))
  | Sampled { scheme; workload; estimate } ->
    headline scheme workload ^ " (sampled)\n\n" ^ Sampling.render estimate
    ^ "\n"
  | Profiled { scheme; workload; top; report; profile; program } ->
    let code = program.Program.code in
    let resolve pc =
      if pc >= 0 && pc < Array.length code then
        Sempe_isa.Instr.to_string code.(pc)
      else "?"
    in
    Printf.sprintf "profile: %s, scheme=%s\n\n" (Workload.describe workload)
      (Scheme.name scheme)
    ^ Report.render report ^ "\n\n"
    ^ Report.render_stall_stack report ^ "\n"
    ^ Profile.render ~n:top ~resolve profile
  | Leakage_matrix results -> Security_exp.render results ^ "\n"
  | Fuzzed { config; outcome } -> Fuzz.render config outcome

let perform ?workers ?plan ?plan_out request =
  to_json (run ?workers ?plan ?plan_out request)

(* ---- wire form ---- *)

let workload_to_json = function
  | Microbench { kernel; width; iters; leaf } ->
    Json.Obj
      [
        ("type", Json.Str "microbench");
        ("kernel", Json.Str (Workload.kernel_named kernel).Kernels.name);
        ("width", Json.Int width);
        ("iters", Json.Int iters);
        ("leaf", Json.Int leaf);
      ]
  | Djpeg { format; blocks; seed } ->
    Json.Obj
      [
        ("type", Json.Str "djpeg");
        ("format", Json.Str (Djpeg.format_name (Workload.format_named format)));
        ("blocks", Json.Int blocks);
        ("seed", Json.Int seed);
      ]
  | Rsa { key } -> Json.Obj [ ("type", Json.Str "rsa"); ("key", Json.Int key) ]

let request_to_json = function
  | Simulate { scheme; workload; strict_oob } ->
    Json.Obj
      [
        ("op", Json.Str "simulate");
        ("scheme", Json.Str (Scheme.name scheme));
        ("strict_oob", Json.Bool strict_oob);
        ("workload", workload_to_json workload);
      ]
  | Sample { scheme; workload; strict_oob; params } ->
    Json.Obj
      [
        ("op", Json.Str "sample");
        ("scheme", Json.Str (Scheme.name scheme));
        ("strict_oob", Json.Bool strict_oob);
        ("workload", workload_to_json workload);
        ("interval", Json.Int params.interval);
        ("coverage", Json.Float params.coverage);
        ("warmup", Json.Int params.warmup);
      ]
  | Profile { scheme; workload; top } ->
    Json.Obj
      [
        ("op", Json.Str "profile");
        ("scheme", Json.Str (Scheme.name scheme));
        ("top", Json.Int top);
        ("workload", workload_to_json workload);
      ]
  | Leakage -> Json.Obj [ ("op", Json.Str "leakage") ]
  | Fuzz_smoke { seed; count } ->
    Json.Obj
      [
        ("op", Json.Str "fuzz-smoke");
        ("seed", Json.Int seed);
        ("count", Json.Int count);
      ]

(* ---- strict decode ---- *)

let ( let* ) = Result.bind

let field name fields =
  match List.assoc_opt name fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_obj name = function
  | Json.Obj fields -> Ok fields
  | _ -> Error (Printf.sprintf "field %S must be an object" name)

let int_field name fields =
  let* v = field name fields in
  match v with
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S must be an integer" name)

let str_field name fields =
  let* v = field name fields in
  match v with
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let bool_field name fields =
  let* v = field name fields in
  match v with
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let float_field name fields =
  let* v = field name fields in
  match v with
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "field %S must be a number" name)

let scheme_field fields =
  let* s = str_field "scheme" fields in
  match Scheme.of_string s with
  | Some scheme -> Ok scheme
  | None ->
    Error
      (Printf.sprintf "unknown scheme %S (expected one of: %s)" s
         (String.concat ", " (List.map Scheme.name Scheme.all)))

let workload_of_fields fields =
  let* w = field "workload" fields in
  let* wf = as_obj "workload" w in
  let* ty = str_field "type" wf in
  let* workload =
    match ty with
    | "microbench" ->
      let* kernel = str_field "kernel" wf in
      let* width = int_field "width" wf in
      let* iters = int_field "iters" wf in
      let* leaf = int_field "leaf" wf in
      Ok (Microbench { kernel; width; iters; leaf })
    | "djpeg" ->
      let* format = str_field "format" wf in
      let* blocks = int_field "blocks" wf in
      let* seed = int_field "seed" wf in
      Ok (Djpeg { format; blocks; seed })
    | "rsa" ->
      let* key = int_field "key" wf in
      Ok (Rsa { key })
    | other -> Error (Printf.sprintf "unknown workload type %S" other)
  in
  Workload.check workload

let request_of_json json =
  match json with
  | Json.Obj fields -> (
    let* op = str_field "op" fields in
    match op with
    | "simulate" ->
      let* scheme = scheme_field fields in
      let* strict_oob = bool_field "strict_oob" fields in
      let* workload = workload_of_fields fields in
      Ok (Simulate { scheme; workload; strict_oob })
    | "sample" ->
      let* scheme = scheme_field fields in
      let* strict_oob = bool_field "strict_oob" fields in
      let* workload = workload_of_fields fields in
      let* interval = int_field "interval" fields in
      let* coverage = float_field "coverage" fields in
      let* warmup = int_field "warmup" fields in
      if interval <= 0 then Error "field \"interval\" must be positive"
      else if not (coverage > 0. && coverage <= 1.) then
        Error "field \"coverage\" must be in (0, 1]"
      else if warmup < 0 then Error "field \"warmup\" must be >= 0"
      else
        Ok
          (Sample
             { scheme; workload; strict_oob;
               params = { interval; coverage; warmup } })
    | "profile" ->
      let* scheme = scheme_field fields in
      let* top = int_field "top" fields in
      let* workload = workload_of_fields fields in
      if top < 1 then Error "field \"top\" must be >= 1"
      else Ok (Profile { scheme; workload; top })
    | "leakage" -> Ok Leakage
    | "fuzz-smoke" ->
      let* seed = int_field "seed" fields in
      let* count = int_field "count" fields in
      if count < 1 then Error "field \"count\" must be >= 1"
      else if count > 10_000 then Error "field \"count\" must be <= 10000"
      else Ok (Fuzz_smoke { seed; count })
    | other -> Error (Printf.sprintf "unknown op %S" other))
  | _ -> Error "request must be a JSON object"

(* ---- content addressing ---- *)

(* The dual independent digests of Security.Observable: two strings that
   collide under [fnv] have no reason to also collide under [fnv2], so
   the pair is a structural fingerprint rather than a single hash a
   lookup could alias behind. *)
let fnv acc x = (acc * 16777619) lxor (x land 0x3fffffff) lxor (x asr 30)
let fnv2 acc x = (acc lxor (x land 0x3fffffff) lxor (x asr 30)) * 16777619

let digests s =
  let h1 = ref 0x811c9dc5 and h2 = ref 0x01000193 in
  String.iter
    (fun c ->
      let x = Char.code c in
      h1 := fnv !h1 x;
      h2 := fnv2 !h2 x)
    s;
  (!h1, !h2)

(* Fingerprint of the compiled program image: the response depends on the
   generated code, so two requests whose JSON collides but whose programs
   differ still get distinct keys. *)
let program_digests scheme workload =
  digests (Marshal.to_string (Workload.build scheme workload).Harness.prog [])

let cache_key request =
  let j1, j2 = digests (Json.to_string (request_to_json request)) in
  match request with
  | Simulate { scheme; workload; _ }
  | Sample { scheme; workload; _ }
  | Profile { scheme; workload; _ } ->
    let p1, p2 = program_digests scheme workload in
    [ j1; j2; p1; p2 ]
  | Leakage | Fuzz_smoke _ -> [ j1; j2 ]

(* Partition key: the JSON digests alone. The router needs a cheap,
   deterministic shard assignment; folding in the program fingerprint
   (as [cache_key] does) would force every routed request through
   [Harness.build]. Two requests with identical canonical JSON always
   share a shard — so coalescing and both caches still see every repeat
   of a request on the same process. *)
let route_key request =
  let j1, j2 = digests (Json.to_string (request_to_json request)) in
  [ j1; j2 ]

let plan_key request =
  match request with
  | Sample { scheme; workload; strict_oob; params } ->
    (* The plan is a product of the fast-forward pass and the interval
       selection only: coverage enters via the derived stride (the same
       derivation Sampling uses), so any coverage selecting the same
       interval set shares one plan. *)
    let stride =
      max 1 (int_of_float (Float.round (1. /. params.coverage)))
    in
    let doc =
      Json.Obj
        [
          ("op", Json.Str "plan");
          ("scheme", Json.Str (Scheme.name scheme));
          ("strict_oob", Json.Bool strict_oob);
          ("workload", workload_to_json workload);
          ("interval", Json.Int params.interval);
          ("warmup", Json.Int (max 0 params.warmup));
          ("stride", Json.Int stride);
        ]
    in
    let j1, j2 = digests (Json.to_string doc) in
    let p1, p2 = program_digests scheme workload in
    Some [ j1; j2; p1; p2 ]
  | Simulate _ | Profile _ | Leakage | Fuzz_smoke _ -> None
