module Workload = Sempe_workloads.Workload
module Scheme = Sempe_core.Scheme
module Config = Sempe_pipeline.Config
module Timing = Sempe_pipeline.Timing
module Spm = Sempe_mem.Spm
module Tablefmt = Sempe_util.Tablefmt
module Json = Sempe_obs.Json

(* Every ablation runs the Fibonacci chain, steered to its first leaf. *)
let chain ~width ~iters =
  Workload.Microbench { kernel = "fibonacci"; width; iters; leaf = 1 }

(* The chain the throughput, snapshot and drain ablations share: Table
   I's W=10, two iterations. *)
let w10 = chain ~width:10 ~iters:2

let timing ?machine scheme w =
  (Workload.run ?machine (Workload.build scheme w) w).Sempe_core.Run.timing

let spm_throughput_sweep () =
  let base = (timing Scheme.Baseline w10).Timing.cycles in
  Batch.map
    (fun throughput ->
      let machine =
        {
          Config.default with
          Config.spm =
            { Spm.default_config with Spm.throughput_bytes = throughput };
        }
      in
      let c = (timing ~machine Scheme.Sempe w10).Timing.cycles in
      (throughput, float_of_int c /. float_of_int base))
    [ 8; 16; 32; 64; 128; 256 ]

(* PhyRS moves the whole physical file (256 INT + 256 FP) plus its RAT
   share at every snapshot point instead of the 48 architectural
   registers; the per-register footprint is the same, so the transfer
   volume scales by the register ratio. We substitute that volume into the
   measured run: total cycles - measured SPM cycles + scaled SPM cycles. *)
let archrs_vs_phyrs () =
  let base = (timing Scheme.Baseline w10).Timing.cycles in
  let r = timing Scheme.Sempe w10 in
  let arch = float_of_int r.Timing.cycles /. float_of_int base in
  let phys_regs = Config.default.Config.int_regs + Config.default.Config.fp_regs in
  let scale = float_of_int phys_regs /. float_of_int Spm.default_config.Spm.arch_regs in
  let phyrs_cycles =
    float_of_int r.Timing.cycles
    -. float_of_int r.Timing.spm_cycles
    +. (float_of_int r.Timing.spm_cycles *. scale)
  in
  [
    ("ArchRS (48 regs, measured)", arch);
    ( Printf.sprintf "PhyRS (%d regs, substituted volume)" phys_regs,
      phyrs_cycles /. float_of_int base );
  ]

let deepest_supported ~entries =
  (* Binary-search-free: nesting W-1 = entries succeeds, entries+1 fails. *)
  let try_width width =
    let machine =
      {
        Config.default with
        Config.jbtable_entries = entries;
        Config.spm = { Spm.default_config with Spm.max_snapshots = entries };
      }
    in
    match timing ~machine Scheme.Sempe (chain ~width ~iters:1) with
    | (_ : Timing.report) -> true
    | exception (Sempe_core.Jbtable.Overflow | Spm.Overflow) -> false
  in
  let rec climb w = if w <= 40 && try_width w then climb (w + 1) else w - 1 in
  climb 1

let jbtable_capacity () =
  Batch.map
    (fun entries -> (entries, deepest_supported ~entries))
    [ 2; 4; 8; 16; 30 ]

let drain_sensitivity () =
  Batch.map
    (fun depth ->
      let machine = { Config.default with Config.frontend_depth = depth } in
      let cycles scheme = (timing ~machine scheme w10).Timing.cycles in
      ( depth,
        float_of_int (cycles Scheme.Sempe)
        /. float_of_int (cycles Scheme.Baseline) ))
    [ 4; 8; 16; 24 ]

type measurements = {
  spm : (int * float) list;
  snapshot : (string * float) list;
  jbtable : (int * int) list;
  drain : (int * float) list;
}

let measure () =
  let spm = spm_throughput_sweep () in
  let snapshot = archrs_vs_phyrs () in
  let jbtable = jbtable_capacity () in
  let drain = drain_sensitivity () in
  { spm; snapshot; jbtable; drain }

let render m =
  let spm =
    Tablefmt.render ~header:[ "SPM bytes/cycle"; "SeMPE slowdown" ]
      (List.map (fun (t, s) -> [ string_of_int t; Tablefmt.times s ]) m.spm)
  in
  let snap =
    Tablefmt.render ~header:[ "snapshot mechanism"; "SeMPE slowdown" ]
      (List.map (fun (n, s) -> [ n; Tablefmt.times s ]) m.snapshot)
  in
  let jb =
    Tablefmt.render ~header:[ "jbTable entries"; "deepest W completing" ]
      (List.map
         (fun (e, w) -> [ string_of_int e; string_of_int w ])
         m.jbtable)
  in
  let drain =
    Tablefmt.render ~header:[ "front-end depth"; "SeMPE slowdown" ]
      (List.map
         (fun (d, s) -> [ string_of_int d; Tablefmt.times s ])
         m.drain)
  in
  String.concat "\n\n"
    [
      "Ablation — SPM throughput (Fibonacci chain, W=10)\n" ^ spm;
      "Ablation — ArchRS vs PhyRS snapshot volume (section IV-F)\n" ^ snap;
      "Ablation — jbTable capacity vs supported nesting (section IV-E)\n" ^ jb;
      "Ablation — pipeline-drain sensitivity to front-end depth\n" ^ drain;
    ]

let to_json m =
  Json.Obj
    [
      ( "spm_throughput",
        Json.List
          (List.map
             (fun (t, s) ->
               Json.Obj
                 [ ("bytes_per_cycle", Json.Int t); ("slowdown", Json.Float s) ])
             m.spm) );
      ( "snapshot_mechanism",
        Json.List
          (List.map
             (fun (n, s) ->
               Json.Obj [ ("mechanism", Json.Str n); ("slowdown", Json.Float s) ])
             m.snapshot) );
      ( "jbtable_capacity",
        Json.List
          (List.map
             (fun (e, w) ->
               Json.Obj [ ("entries", Json.Int e); ("deepest_width", Json.Int w) ])
             m.jbtable) );
      ( "drain_sensitivity",
        Json.List
          (List.map
             (fun (d, s) ->
               Json.Obj
                 [ ("frontend_depth", Json.Int d); ("slowdown", Json.Float s) ])
             m.drain) );
    ]
