(* Output checks. Every failed check counts as a failed operation. *)

module Api = Sempe_serve.Api
module Json = Sempe_obs.Json
module Scheme = Sempe_core.Scheme
module Exec = Sempe_core.Exec
module Run = Sempe_core.Run
module Timing = Sempe_pipeline.Timing
module Stall = Sempe_pipeline.Stall
module Harness = Sempe_workloads.Harness
module Rsa = Sempe_workloads.Rsa

let ( let* ) = Result.bind

let member path doc =
  List.fold_left
    (fun acc k -> Option.bind acc (Json.member k))
    (Some doc) path

let int path doc =
  match member path doc with
  | Some (Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "missing integer %s" (String.concat "." path))

let float path doc =
  match member path doc with
  | Some (Json.Float f) -> Ok f
  | Some (Json.Int i) -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "missing number %s" (String.concat "." path))

(* A [Timing.report] rebuilt from its [Report.to_json] rendering, for
   [Timing.check_report]. The cache signatures are not rendered and the
   check does not read them. *)
let report_of_json r =
  let i k = int [ k ] r and f k = float [ k ] r in
  let* instructions = i "instructions" in
  let* cycles = i "cycles" in
  let* cpi = f "cpi" in
  let* cond_branches = i "cond_branches" in
  let* mispredicts = i "mispredicts" in
  let* secure_branches = i "secure_branches" in
  let* drains = i "drains" in
  let* spm_cycles = i "spm_cycles" in
  let* loads = i "loads" in
  let* stores = i "stores" in
  let* il1_accesses = i "il1_accesses" in
  let* il1_misses = i "il1_misses" in
  let* il1_miss_rate = f "il1_miss_rate" in
  let* dl1_accesses = i "dl1_accesses" in
  let* dl1_misses = i "dl1_misses" in
  let* dl1_miss_rate = f "dl1_miss_rate" in
  let* l2_accesses = i "l2_accesses" in
  let* l2_misses = i "l2_misses" in
  let* l2_miss_rate = f "l2_miss_rate" in
  let stall_stack = Array.make Stall.count 0 in
  let* () =
    List.fold_left
      (fun acc b ->
        let* () = acc in
        let* n = int [ "stall_stack"; Stall.name b ] r in
        stall_stack.(Stall.index b) <- n;
        Ok ())
      (Ok ()) Stall.all
  in
  Ok
    {
      Timing.instructions; cycles; cpi; cond_branches; mispredicts;
      secure_branches; drains; spm_cycles; loads; stores; il1_miss_rate;
      dl1_miss_rate; l2_miss_rate; il1_accesses; dl1_accesses; l2_accesses;
      il1_misses; dl1_misses; l2_misses; il1_sig = 0; dl1_sig = 0;
      l2_sig = 0; bpred_sig = 0; stall_stack;
    }

let report doc =
  match member [ "report" ] doc with
  | None -> Error "missing report"
  | Some r -> (
    let* rep = report_of_json r in
    match Timing.check_report rep with
    | [] -> Ok ()
    | msgs -> Error ("check_report: " ^ String.concat "; " msgs))

(* The checksum a workload must produce, from a functional-only run of
   its baseline-scheme build: no timing model, no SeMPE hardware. *)
let functional_checksum (w : Api.workload) =
  let src, globals, arrays, _ = Replay.setup Scheme.Baseline w in
  let built = Harness.build Scheme.Baseline src in
  let r =
    Run.execute ~support:(Scheme.support Scheme.Baseline) ~mem_words:(1 lsl 20)
      ~init_mem:(Harness.init_mem_of built ~globals ~arrays)
      built.Harness.prog
  in
  r.Exec.regs.(Sempe_isa.Reg.rv)

(* Distinct workloads whose documents carry a checksum. *)
let checksum_workloads reqs =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun req ->
      match req with
      | Api.Simulate
          { workload = (Api.Microbench _ | Api.Djpeg _) as w; _ } ->
        Hashtbl.replace seen (Gen.key (Gen.simulate Scheme.Baseline w)) w
      | _ -> ())
    reqs;
  Hashtbl.fold (fun k w acc -> (k, w) :: acc) seen []

(* [expected] maps a workload key to its functional checksum. *)
let document ~expected (req : Api.request) doc =
  match req with
  | Api.Simulate { workload = Api.Rsa { key }; _ } ->
    let want = Rsa.reference ~key ~base:1234 ~modulus:99991 in
    let* result = int [ "result" ] doc in
    let* exp = int [ "expected" ] doc in
    if result <> want || exp <> want then
      Error (Printf.sprintf "rsa key=%d: result %d, reference %d" key result want)
    else report doc
  | Api.Simulate { workload = w; _ } ->
    let* sum = int [ "checksum" ] doc in
    let want = Hashtbl.find expected (Gen.key (Gen.simulate Scheme.Baseline w)) in
    if sum <> want then
      Error (Printf.sprintf "checksum %d, functional baseline %d" sum want)
    else report doc
  | Api.Profile _ -> report doc
  | Api.Sample _ ->
    let* lo = int [ "sampling"; "cycles_low" ] doc in
    let* est = int [ "sampling"; "cycles_estimate" ] doc in
    let* hi = int [ "sampling"; "cycles_high" ] doc in
    if lo <= est && est <= hi then Ok ()
    else Error (Printf.sprintf "estimate %d outside its band %d..%d" est lo hi)
  | Api.Leakage | Api.Fuzz_smoke _ -> Error "unexpected request kind"

(* Instructions and cycles a document reports as simulated in detail
   (the deterministic companions): a sampled estimate counts only its
   measured intervals. *)
let counts doc =
  match (member [ "report" ] doc, member [ "sampling" ] doc) with
  | Some r, _ ->
    ( Result.value ~default:0 (int [ "instructions" ] r),
      Result.value ~default:0 (int [ "cycles" ] r) )
  | None, Some s ->
    ( Result.value ~default:0 (int [ "measured_instructions" ] s),
      Result.value ~default:0 (int [ "measured_cycles" ] s) )
  | None, None -> (0, 0)
