module Djpeg = Sempe_workloads.Djpeg
module Workload = Sempe_workloads.Workload
module Harness = Sempe_workloads.Harness
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Sampling = Sempe_sampling.Sampling
module Pool = Sempe_util.Pool
module Tablefmt = Sempe_util.Tablefmt
module Json = Sempe_obs.Json

type cell = {
  workload : string;
  coverage : float;
  full_cycles : int;
  full_s : float;
  estimate : Sampling.estimate;
  sampled_s : float;
}

let error c = Sampling.relative_error c.estimate ~cycles:c.full_cycles
let in_bound c = Sampling.contains c.estimate ~cycles:c.full_cycles

let speedup c =
  if c.sampled_s > 0. then c.full_s /. c.sampled_s else Float.nan

(* The grid: the djpeg formats at 32 blocks (small enough that the full
   reference runs stay affordable) and one microbenchmark chain, each
   with its row label. *)
let workloads =
  List.map
    (fun f ->
      let format = Djpeg.format_name f in
      ("djpeg-" ^ format, Workload.Djpeg { format; blocks = 32; seed = 42 }))
    Djpeg.all_formats
  @ [ ( "mb-fibonacci",
        Workload.Microbench
          { kernel = "fibonacci"; width = 4; iters = 120; leaf = 1 } ) ]

let coverages = [ 0.05; 0.10; 0.25 ]
let warmup = 2_000

(* Each workload is one Batch job: the full reference run and the sampled
   runs for every coverage level share the job so the wall-clock
   comparison is same-domain (and the full run happens exactly once).
   Inside a Batch job the sampler is pinned to [workers:1] — the fan-out
   already happens at the workload level, and nested pools on an
   oversubscribed host only add GC-rendezvous stalls. *)
let collect () =
  Batch.map
    (fun (name, w) ->
      let built = Workload.build Scheme.Sempe w in
      let t0 = Pool.now_s () in
      let outcome = Workload.run built w in
      let full = Run.cycles outcome in
      let full_s = Pool.now_s () -. t0 in
      (* Size intervals to the workload (~40 per run) so every cell
         measures enough intervals for a meaningful band — a fixed
         interval degenerates on the smaller workloads. The 10k floor
         keeps per-interval boundary effects (the truncated detailed
         warmup) small relative to the interval itself. *)
      let interval =
        max 10_000 (outcome.Run.timing.Sempe_pipeline.Timing.instructions / 40)
      in
      let globals, arrays = Workload.inputs w in
      List.map
        (fun coverage ->
          let config = { Sampling.default_config with interval; coverage; warmup } in
          let t1 = Pool.now_s () in
          let estimate =
            Harness.sample ~globals ~arrays ~config ~workers:1 built
          in
          let sampled_s = Pool.now_s () -. t1 in
          {
            workload = name;
            coverage;
            full_cycles = full;
            full_s;
            estimate;
            sampled_s;
          })
        coverages)
    workloads
  |> List.concat

let render cells =
  let rows =
    List.map
      (fun c ->
        [
          c.workload;
          Tablefmt.percent c.coverage;
          string_of_int c.full_cycles;
          string_of_int c.estimate.Sampling.cycles_estimate;
          Printf.sprintf "[%d, %d]" c.estimate.Sampling.cycles_low
            c.estimate.Sampling.cycles_high;
          Tablefmt.percent (error c);
          (if in_bound c then "yes" else "NO");
          Tablefmt.times (speedup c);
        ])
      cells
  in
  "Sampled simulation vs full simulation (cycles; error relative to the full run)\n"
  ^ Tablefmt.render
      ~header:
        [
          "workload"; "coverage"; "full"; "estimate"; "90% band"; "error";
          "in-bound"; "speedup";
        ]
      rows

let csv cells =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "workload,coverage,full_cycles,estimate,low,high,error,in_bound,full_s,sampled_s,speedup\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%.3f,%d,%d,%d,%d,%.5f,%b,%.4f,%.4f,%.2f\n"
           c.workload c.coverage c.full_cycles
           c.estimate.Sampling.cycles_estimate c.estimate.Sampling.cycles_low
           c.estimate.Sampling.cycles_high (error c) (in_bound c) c.full_s
           c.sampled_s (speedup c)))
    cells;
  Buffer.contents buf

let to_json cells =
  Json.List
    (List.map
       (fun c ->
         Json.Obj
           [
             ("workload", Json.Str c.workload);
             ("coverage", Json.Float c.coverage);
             ("full_cycles", Json.Int c.full_cycles);
             ("error", Json.Float (error c));
             ("in_bound", Json.Bool (in_bound c));
             ("full_s", Json.Float c.full_s);
             ("sampled_s", Json.Float c.sampled_s);
             ("speedup", Json.Float (speedup c));
             ("estimate", Sampling.to_json c.estimate);
           ])
       cells)
