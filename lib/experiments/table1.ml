module Workload = Sempe_workloads.Workload
module Kernels = Sempe_workloads.Kernels
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Tablefmt = Sempe_util.Tablefmt
module Json = Sempe_obs.Json

type row = {
  scheme : Scheme.t;
  avg_overhead : float;
  max_overhead : float;
}

let schemes = [ Scheme.Cte; Scheme.Mto; Scheme.Raccoon; Scheme.Sempe ]

(* One job per (scheme, kernel) cell — each simulates the protected and
   baseline variants on fresh machines — fanned out through Batch. *)
let measure ?(width = 10) ?(iters = 2) () =
  let overhead scheme kernel =
    let w =
      Workload.Microbench
        { kernel = kernel.Kernels.name; width; iters; leaf = 1 }
    in
    let cycles s = Run.cycles (Workload.run (Workload.build s w) w) in
    float_of_int (cycles scheme) /. float_of_int (cycles Scheme.Baseline)
  in
  Batch.map_product overhead schemes Kernels.all
  |> List.map (fun (scheme, os) ->
         let geo =
           exp (List.fold_left (fun acc o -> acc +. log o) 0.0 os
                /. float_of_int (List.length os))
         in
         let mx = List.fold_left max 0.0 os in
         { scheme; avg_overhead = geo; max_overhead = mx })

let qualitative scheme =
  (* approach, technique, programming complexity, simple architecture,
     backward compatible — the paper's qualitative columns. *)
  match scheme with
  | Scheme.Cte ->
    ("elim. cond. branch", "SW", "High", "Yes", "Yes")
  | Scheme.Mto -> ("equalize path", "HW/SW", "Low", "No", "No")
  | Scheme.Raccoon -> ("execute both paths", "SW", "Low", "Yes", "No")
  | Scheme.Sempe -> ("execute both paths", "HW/SW", "Low", "Yes", "Yes")
  | Scheme.Baseline | Scheme.Sempe_on_legacy -> ("-", "-", "-", "-", "-")

let label = function
  | Scheme.Cte -> "CTE (FaCT)"
  | Scheme.Mto -> "GhostRider/MTO"
  | Scheme.Raccoon -> "Raccoon"
  | Scheme.Sempe -> "SeMPE"
  | Scheme.Baseline -> "Baseline"
  | Scheme.Sempe_on_legacy -> "SeMPE-on-legacy"

let render rows =
  let table_rows =
    List.map
      (fun r ->
        let approach, technique, complexity, simple, compat = qualitative r.scheme in
        [
          label r.scheme;
          approach;
          technique;
          complexity;
          Tablefmt.times r.avg_overhead;
          Tablefmt.times r.max_overhead;
          simple;
          compat;
        ])
      rows
  in
  "Table I — approaches to eliminate SDBCB (overheads measured on this \
   substrate, deep-nesting microbenchmarks, W=10)\n"
  ^ Tablefmt.render
      ~header:
        [
          "scheme"; "approach"; "technique"; "prog. complexity";
          "overhead (geo-mean)"; "overhead (max)"; "simple arch"; "backward compat";
        ]
      table_rows

let to_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("scheme", Json.Str (Scheme.name r.scheme));
             ("label", Json.Str (label r.scheme));
             ("avg_overhead", Json.Float r.avg_overhead);
             ("max_overhead", Json.Float r.max_overhead);
           ])
       rows)
