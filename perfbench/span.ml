(* Host-time spans recorded from the benchmark's own files, around its
   calls into each library. Spans stay in memory and are written once, at
   exit, as a Perfetto document through [Sempe_obs.Trace] — the envelope
   the simulator's cycle traces use, so host phases open in the same UI.

   A span is (name, start, end, parent). The name is "<layer>.<call>",
   where the layer is the library the call enters. Nesting follows a
   stack per recording thread; spans of one request share [req]. When
   tracing is off, [run] costs one branch. *)

module Json = Sempe_obs.Json
module Trace = Sempe_obs.Trace

type t = {
  id : int;
  name : string;
  req : int;
  parent : int;  (** -1 for a root *)
  tid : int;
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let spans : t list ref = ref []
let count = ref 0
let epoch = Unix.gettimeofday ()
let m = Mutex.create ()

(* Open spans of the main thread; other threads pass [parent] explicitly. *)
let stack : int list ref = ref []
let current_req = ref 0

let open_span ?(tid = 0) ?parent name =
  let parent =
    match parent with
    | Some p -> p
    | None -> ( match !stack with p :: _ -> p | [] -> -1)
  in
  Mutex.lock m;
  let s =
    { id = !count; name; req = !current_req; parent; tid;
      t0 = Unix.gettimeofday (); t1 = nan }
  in
  incr count;
  spans := s :: !spans;
  Mutex.unlock m;
  s

let close s = s.t1 <- Unix.gettimeofday ()

let run name f =
  if not !enabled then f ()
  else begin
    let s = open_span name in
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        close s;
        stack := List.tl !stack)
      f
  end

(* A span on a thread that is not the main one (serve clients). *)
let run_on ~tid name f =
  if not !enabled then f ()
  else begin
    let s = open_span ~tid ~parent:(-1) name in
    Fun.protect ~finally:(fun () -> close s) f
  end

let all () = List.rev !spans
let dur s = s.t1 -. s.t0

(* Self time: a span's duration minus the part its children cover.
   Children of one parent never overlap (one stack per thread). *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let write_perfetto path =
  let us t = int_of_float ((t -. epoch) *. 1e6) in
  let events =
    Trace.process_meta ~pid:1 ~name:"perfbench host phases"
    :: List.map
         (fun s ->
           Trace.slice_at ~name:s.name ~pid:1 ~tid:s.tid ~ts:(us s.t0)
             ~dur:(max 0 (us s.t1 - us s.t0))
             ~args:
               [ ("id", Json.Int s.id); ("parent", Json.Int s.parent);
                 ("req", Json.Int s.req) ])
         (all ())
  in
  let oc = open_out path in
  Json.output oc (Json.Obj [ ("traceEvents", Json.List events) ]);
  output_char oc '\n';
  close_out oc
