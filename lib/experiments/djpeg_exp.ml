module Djpeg = Sempe_workloads.Djpeg
module Workload = Sempe_workloads.Workload
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Timing = Sempe_pipeline.Timing
module Tablefmt = Sempe_util.Tablefmt
module Json = Sempe_obs.Json
module Report = Sempe_obs.Report

type cell = {
  format : Djpeg.format;
  size : Djpeg.size;
  base : Timing.report;
  sempe : Timing.report;
}

(* The programs are compiled once per format (a djpeg program does not
   depend on the block count; cheap, and shared read-only by the jobs);
   each (format, size) cell is one independent simulation job fanned out
   through Batch. *)
let collect ?(sizes = Djpeg.sizes) () =
  let cells =
    List.concat_map
      (fun format ->
        let workload blocks =
          Workload.Djpeg
            { format = Djpeg.format_name format; blocks; seed = 42 }
        in
        let base_built = Workload.build Scheme.Baseline (workload 1) in
        let sempe_built = Workload.build Scheme.Sempe (workload 1) in
        List.map
          (fun (size : Djpeg.size) ->
            (format, size, workload size.Djpeg.blocks, base_built, sempe_built))
          sizes)
      Djpeg.all_formats
  in
  Batch.map
    (fun (format, size, w, base_built, sempe_built) ->
      let timing built = (Workload.run built w).Run.timing in
      { format; size; base = timing base_built; sempe = timing sempe_built })
    cells

let overhead cell =
  (float_of_int cell.sempe.Timing.cycles /. float_of_int cell.base.Timing.cycles)
  -. 1.0

let render_fig8 cells =
  (* column order follows the input grid (block-count order, not lexical) *)
  let sizes =
    List.fold_left
      (fun acc c ->
        if List.mem c.size.Djpeg.label acc then acc else acc @ [ c.size.Djpeg.label ])
      [] cells
  in
  let row fmt =
    Djpeg.format_name fmt
    :: List.map
         (fun label ->
           match
             List.find_opt
               (fun c -> c.format = fmt && c.size.Djpeg.label = label)
               cells
           with
           | Some c -> Tablefmt.percent (overhead c)
           | None -> "-")
         sizes
  in
  "Figure 8 — djpeg execution-time overhead of SeMPE over baseline\n"
  ^ Tablefmt.render ~header:("format" :: sizes) (List.map row Djpeg.all_formats)

let render_fig9 cells =
  let line title get =
    let rows =
      List.map
        (fun c ->
          [
            Djpeg.format_name c.format;
            c.size.Djpeg.label;
            Tablefmt.percent (get c.base);
            Tablefmt.percent (get c.sempe);
          ])
        cells
    in
    Printf.sprintf "Figure 9%s — %s miss rate (baseline vs SeMPE; lower is better)\n%s"
      (match title with "IL1" -> "a" | "DL1" -> "b" | _ -> "c")
      title
      (Tablefmt.render ~header:[ "format"; "size"; "baseline"; "SeMPE" ] rows)
  in
  String.concat "\n\n"
    [
      line "IL1" (fun r -> r.Timing.il1_miss_rate);
      line "DL1" (fun r -> r.Timing.dl1_miss_rate);
      line "L2" (fun r -> r.Timing.l2_miss_rate);
    ]

let csv cells =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "format,size,baseline_cycles,sempe_cycles,overhead,il1_base,il1_sempe,dl1_base,dl1_sempe,l2_base,l2_sempe\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n"
           (Djpeg.format_name c.format) c.size.Djpeg.label
           c.base.Timing.cycles c.sempe.Timing.cycles (overhead c)
           c.base.Timing.il1_miss_rate c.sempe.Timing.il1_miss_rate
           c.base.Timing.dl1_miss_rate c.sempe.Timing.dl1_miss_rate
           c.base.Timing.l2_miss_rate c.sempe.Timing.l2_miss_rate))
    cells;
  Buffer.contents buf

let to_json cells =
  Json.List
    (List.map
       (fun c ->
         Json.Obj
           [
             ("format", Json.Str (Djpeg.format_name c.format));
             ("size", Json.Str c.size.Djpeg.label);
             ("overhead", Json.Float (overhead c));
             ("baseline", Report.to_json c.base);
             ("sempe", Report.to_json c.sempe);
           ])
       cells)
