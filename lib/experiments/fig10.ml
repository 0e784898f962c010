module MB = Sempe_workloads.Microbench
module Workload = Sempe_workloads.Workload
module Kernels = Sempe_workloads.Kernels
module Harness = Sempe_workloads.Harness
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Tablefmt = Sempe_util.Tablefmt
module Json = Sempe_obs.Json

type point = {
  width : int;
  baseline_cycles : int;
  sempe_cycles : int;
  cte_cycles : int;
  ideal_cycles : int;
}

type series = { kernel : string; points : point list }

let point ~kernel ~width ~iters =
  let chain leaf =
    Workload.Microbench { kernel = kernel.Kernels.name; width; iters; leaf }
  in
  let cycles scheme w = Run.cycles (Workload.run (Workload.build scheme w) w) in
  let leaf1 = chain 1 in
  let baseline_cycles = cycles Scheme.Baseline leaf1 in
  let sempe_cycles = cycles Scheme.Sempe leaf1 in
  let cte_cycles = cycles Scheme.Cte leaf1 in
  (* Ideal: the sum of the standalone times of all W+1 paths. Each leaf is
     timed on the unprotected baseline; the chain/loop skeleton, counted
     once in the ideal, is measured with a null kernel. *)
  let skeleton =
    Run.cycles
      (Workload.run
         (Harness.build Scheme.Baseline (MB.skeleton ~width ~iters))
         leaf1)
  in
  let path_sum =
    List.fold_left
      (fun acc leaf -> acc + cycles Scheme.Baseline (chain leaf))
      0
      (List.init (width + 1) (fun k -> k + 1))
  in
  let ideal_cycles = max 1 (path_sum - (width * skeleton)) in
  { width; baseline_cycles; sempe_cycles; cte_cycles; ideal_cycles }

(* One job per (kernel, width) cell; every job owns its machines, so the
   grid fans out to the Batch worker pool and reassembles in order. *)
let sweep ?(widths = List.init 10 (fun k -> k + 1)) ?(iters = 3) () =
  Batch.map_product
    (fun kernel width -> point ~kernel ~width ~iters)
    Kernels.all widths
  |> List.map (fun (kernel, points) ->
         { kernel = kernel.Kernels.name; points })

let slowdown num den = float_of_int num /. float_of_int den

(* Cross-kernel average of [f] per width. A series may be missing a
   sampled width (a kernel that cannot nest that deep): average over the
   series that have the point and drop widths nobody sampled, instead of
   raising Not_found on the first gap. *)
let cross_kernel_average ~f series =
  let widths =
    List.sort_uniq compare
      (List.concat_map (fun s -> List.map (fun p -> p.width) s.points) series)
  in
  List.filter_map
    (fun w ->
      let vals =
        List.filter_map
          (fun s ->
            Option.map f (List.find_opt (fun p -> p.width = w) s.points))
          series
      in
      match vals with
      | [] -> None
      | _ ->
        Some
          ( float_of_int w,
            List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals) ))
    widths

let render_a series =
  let blocks =
    List.map
      (fun s ->
        let rows =
          List.map
            (fun p ->
              [
                string_of_int p.width;
                Tablefmt.times (slowdown p.sempe_cycles p.baseline_cycles);
                Tablefmt.times (slowdown p.cte_cycles p.baseline_cycles);
                Tablefmt.times (slowdown p.cte_cycles p.sempe_cycles);
              ])
            s.points
        in
        Printf.sprintf "Figure 10a — %s (slowdown vs baseline; log axis in paper)\n%s"
          s.kernel
          (Tablefmt.render
             ~header:[ "W"; "SeMPE"; "CTE (FaCT)"; "CTE/SeMPE" ]
             rows))
      series
  in
  String.concat "\n\n" blocks

let render_b series =
  let widths =
    match series with [] -> [] | s :: _ -> List.map (fun p -> p.width) s.points
  in
  let row w =
    let at s = List.find (fun p -> p.width = w) s.points in
    let avg f =
      List.fold_left (fun acc s -> acc +. f (at s)) 0.0 series
      /. float_of_int (List.length series)
    in
    [
      string_of_int w;
      Tablefmt.fixed 2 (avg (fun p -> slowdown p.sempe_cycles p.ideal_cycles));
      Tablefmt.fixed 2 (avg (fun p -> slowdown p.cte_cycles p.ideal_cycles));
      Tablefmt.fixed 2 (avg (fun p -> slowdown p.ideal_cycles p.baseline_cycles));
    ]
  in
  "Figure 10b — average slowdown normalized to ideal (sum of all paths)\n"
  ^ Tablefmt.render
      ~header:[ "W"; "SeMPE/ideal"; "CTE/ideal"; "ideal/baseline" ]
      (List.map row widths)

let csv series =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "kernel,width,baseline_cycles,sempe_cycles,cte_cycles,ideal_cycles\n";
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%d,%d,%d,%d\n" s.kernel p.width
               p.baseline_cycles p.sempe_cycles p.cte_cycles p.ideal_cycles))
        s.points)
    series;
  Buffer.contents buf

let to_json series =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("kernel", Json.Str s.kernel);
             ( "points",
               Json.List
                 (List.map
                    (fun p ->
                      Json.Obj
                        [
                          ("width", Json.Int p.width);
                          ("baseline_cycles", Json.Int p.baseline_cycles);
                          ("sempe_cycles", Json.Int p.sempe_cycles);
                          ("cte_cycles", Json.Int p.cte_cycles);
                          ("ideal_cycles", Json.Int p.ideal_cycles);
                          ( "sempe_slowdown",
                            Json.Float (slowdown p.sempe_cycles p.baseline_cycles) );
                          ( "cte_slowdown",
                            Json.Float (slowdown p.cte_cycles p.baseline_cycles) );
                        ])
                    s.points) );
           ])
       series)
