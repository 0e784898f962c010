(* Diff engine over witness streams: where, exactly, do two runs under
   different secrets stop looking the same? Every divergent event index is
   attributed to one static PC and one hardware-structure instance, so
   the per-structure "leakage stack" sums to the divergent-event total by
   construction — same contract as the CPI stall stack. *)

module Json = Sempe_obs.Json
module Report = Sempe_obs.Report
module Trace = Sempe_obs.Trace
module Program = Sempe_isa.Program

type divergence = {
  d_index : int;
  d_pc : int;
  d_structure : int;
  d_cycle : int;
}

type channel_report = {
  cr_stream : Witness.stream;
  cr_events : int;  (** stream length of the reference (first) run *)
  cr_divergent : int;
  cr_first : divergence option;
  cr_regions : (int * int) list;  (** divergent index ranges, [start, stop) *)
  cr_stack : (int * int) list;
      (** structure id -> divergent events; sums to [cr_divergent] *)
  cr_pcs : (int * int) list;  (** pc -> divergent events; same sum *)
}

type t = {
  runs : int;
  instructions : int;  (** committed µops of the reference run *)
  by_channel : channel_report list;
}

let attribute_stream w0 rest stream =
  let len0 = Witness.length w0 stream in
  let lens = List.map (fun w -> Witness.length w stream) rest in
  let maxlen = List.fold_left max len0 lens in
  let stack = Hashtbl.create 16 in
  let pcs = Hashtbl.create 16 in
  let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
  let divergent = ref 0 in
  let first = ref None in
  let regions = ref [] in
  let region_start = ref (-1) in
  let close_region stop =
    if !region_start >= 0 then begin
      regions := (!region_start, stop) :: !regions;
      region_start := -1
    end
  in
  for k = 0 to maxlen - 1 do
    let diverges =
      List.exists
        (fun w ->
          let lw = Witness.length w stream in
          if k < len0 && k < lw then
            Witness.entry w0 stream k <> Witness.entry w stream k
          else k < len0 || k < lw)
        rest
    in
    if diverges then begin
      incr divergent;
      if !region_start < 0 then region_start := k;
      (* attribute to the reference run's event when it has one; an event
         past the reference's end belongs to the first longer run *)
      let pc, sid, _detail, cycle =
        if k < len0 then
          let p, s, d = Witness.entry w0 stream k in
          (p, s, d, Witness.cycle_at w0 stream k)
        else
          let w =
            List.find (fun w -> k < Witness.length w stream) rest
          in
          let p, s, d = Witness.entry w stream k in
          (p, s, d, Witness.cycle_at w stream k)
      in
      bump stack sid;
      bump pcs pc;
      if !first = None then
        Some { d_index = k; d_pc = pc; d_structure = sid; d_cycle = cycle }
        |> fun f -> first := f
    end
    else close_region k
  done;
  close_region maxlen;
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (k1, n1) (k2, n2) ->
           if n1 <> n2 then compare n2 n1 else compare k1 k2)
  in
  {
    cr_stream = stream;
    cr_events = len0;
    cr_divergent = !divergent;
    cr_first = !first;
    cr_regions = List.rev !regions;
    cr_stack = sorted stack;
    cr_pcs = sorted pcs;
  }

let attribute witnesses =
  match witnesses with
  | w0 :: (_ :: _ as rest) ->
    {
      runs = List.length witnesses;
      instructions = Witness.instructions w0;
      by_channel = List.map (attribute_stream w0 rest) Witness.streams;
    }
  | _ ->
    invalid_arg "Attribution.attribute: need at least 2 witnesses to compare"

let is_clean t = List.for_all (fun cr -> cr.cr_divergent = 0) t.by_channel
let total_divergent t =
  List.fold_left (fun acc cr -> acc + cr.cr_divergent) 0 t.by_channel

(* Source-level statement for a static pc: the nearest preceding label of
   the program (codegen emits one per structured statement — sec_t,
   sec_join, while, fn_<name>_exit, ...) plus the instruction offset. *)
let locate (prog : Program.t) pc =
  let best =
    List.fold_left
      (fun best (name, at) ->
        if at <= pc then
          match best with
          | Some (_, bat) when bat >= at -> best
          | _ -> Some (name, at)
        else best)
      None prog.Program.labels
  in
  match best with
  | Some (name, at) when at = pc -> Printf.sprintf "%s (pc %d)" name pc
  | Some (name, at) -> Printf.sprintf "%s+%d (pc %d)" name (pc - at) pc
  | None -> Printf.sprintf "pc %d" pc

let pc_label ?program pc =
  match program with
  | Some p -> locate p pc
  | None -> Printf.sprintf "pc %d" pc

let render ?program t =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "leakage attribution over %d runs (%d instructions in the reference \
     run): %s\n"
    t.runs t.instructions
    (if is_clean t then "indistinguishable on every channel"
     else Printf.sprintf "%d divergent event(s)" (total_divergent t));
  List.iter
    (fun cr ->
      if cr.cr_divergent > 0 then begin
        Buffer.add_char b '\n';
        (match cr.cr_first with
         | Some d ->
           Printf.bprintf b
             "channel %-16s first divergence at event %d/%d: %s, %s, cycle \
              %d\n"
             (Witness.stream_name cr.cr_stream)
             d.d_index cr.cr_events
             (pc_label ?program d.d_pc)
             (Witness.structure_name d.d_structure)
             d.d_cycle
         | None -> ());
        if List.length cr.cr_regions > 1 then
          Printf.bprintf b "  %d divergent regions: %s\n"
            (List.length cr.cr_regions)
            (String.concat ", "
               (List.map
                  (fun (s, e) -> Printf.sprintf "[%d,%d)" s e)
                  cr.cr_regions));
        Buffer.add_string b
          (Report.render_leakage_stack
             ~title:
               (Printf.sprintf "leakage stack: %s"
                  (Witness.stream_name cr.cr_stream))
             ~total:cr.cr_divergent ~unit:"events"
             (List.map
                (fun (sid, n) -> (Witness.structure_name sid, n))
                cr.cr_stack));
        Printf.bprintf b "  by static pc: %s\n"
          (String.concat ", "
             (List.map
                (fun (pc, n) ->
                  Printf.sprintf "%s: %d" (pc_label ?program pc) n)
                cr.cr_pcs))
      end)
    t.by_channel;
  Buffer.contents b

let to_json ?program t =
  let channel cr =
    Json.Obj
      ([
         ("channel", Json.Str (Witness.stream_name cr.cr_stream));
         ("events", Json.Int cr.cr_events);
         ("divergent", Json.Int cr.cr_divergent);
       ]
      @ (match cr.cr_first with
         | None -> []
         | Some d ->
           [
             ( "first_divergence",
               Json.Obj
                 [
                   ("index", Json.Int d.d_index);
                   ("pc", Json.Int d.d_pc);
                   ("structure", Json.Str (Witness.structure_name d.d_structure));
                   ("statement", Json.Str (pc_label ?program d.d_pc));
                   ("cycle", Json.Int d.d_cycle);
                 ] );
           ])
      @ [
          ( "regions",
            Json.List
              (List.map
                 (fun (s, e) -> Json.List [ Json.Int s; Json.Int e ])
                 cr.cr_regions) );
          ( "stack",
            Report.leakage_stack_json
              (List.map
                 (fun (sid, n) -> (Witness.structure_name sid, n))
                 cr.cr_stack) );
          ( "pcs",
            Json.Obj
              (List.map
                 (fun (pc, n) -> (pc_label ?program pc, Json.Int n))
                 cr.cr_pcs) );
        ])
  in
  Json.Obj
    [
      ("runs", Json.Int t.runs);
      ("instructions", Json.Int t.instructions);
      ("clean", Json.Bool (is_clean t));
      ("total_divergent", Json.Int (total_divergent t));
      ("channels", Json.List (List.map channel t.by_channel));
    ]

(* One Perfetto lane per secret, an instant marker per divergent region
   start on every lane that still has the event. ts is the commit cycle. *)
let perfetto_events ?(secrets = []) t witnesses =
  let pid = 0 in
  let name_of i =
    match List.nth_opt secrets i with
    | Some s -> Printf.sprintf "secret %s" s
    | None -> Printf.sprintf "secret #%d" i
  in
  let lanes =
    List.concat
      (List.mapi
         (fun i w ->
           let tid = i + 1 in
           let cycles =
             let n = Witness.length w Witness.Timing in
             if n = 0 then 0 else Witness.cycle_at w Witness.Timing (n - 1)
           in
           [
             Trace.thread_meta ~pid ~tid ~name:(name_of i);
             Trace.slice_at ~name:(name_of i) ~pid ~tid ~ts:0 ~dur:cycles
               ~args:
                 [
                   ("instructions", Json.Int (Witness.instructions w));
                   ("cycles", Json.Int cycles);
                 ];
           ])
         witnesses)
  in
  let markers =
    List.concat_map
      (fun cr ->
        List.concat_map
          (fun (start, stop) ->
            List.concat
              (List.mapi
                 (fun i w ->
                   if start < Witness.length w cr.cr_stream then begin
                     let pc, sid, _ = Witness.entry w cr.cr_stream start in
                     [
                       Trace.instant
                         ~name:
                           (Printf.sprintf "%s diverges"
                              (Witness.stream_name cr.cr_stream))
                         ~pid ~tid:(i + 1)
                         ~ts:(Witness.cycle_at w cr.cr_stream start)
                         ~args:
                           [
                             ("index", Json.Int start);
                             ("region_events", Json.Int (stop - start));
                             ("pc", Json.Int pc);
                             ( "structure",
                               Json.Str (Witness.structure_name sid) );
                           ];
                     ]
                   end
                   else [])
                 witnesses))
          cr.cr_regions)
      t.by_channel
  in
  (Trace.process_meta ~pid ~name:"sempe-leakage" :: lanes) @ markers

let write_perfetto ?secrets oc t witnesses =
  let events = perfetto_events ?secrets t witnesses in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then output_string oc ",\n" else output_string oc "\n";
      Json.output oc ev)
    events;
  output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n"
