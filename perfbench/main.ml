(* The repository benchmark. One run measures one workload for a fixed
   number of seconds, checks every output, and prints a JSON result as its
   last stdout line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] reports the end-to-end metrics (host time, tracing off);
   [--trace 1] is the separate traced run that reports the per-layer
   metrics and writes the spans as a Perfetto file. Workload rationale,
   the layer-to-end-to-end map and the measured host drift are in
   NOTES.md. *)

module Api = Sempe_serve.Api
module Server = Sempe_serve.Server
module Client = Sempe_serve.Client
module Json = Sempe_obs.Json
module Scheme = Sempe_core.Scheme
module Exec = Sempe_core.Exec
module Run = Sempe_core.Run
module Pool = Sempe_util.Pool
module Harness = Sempe_workloads.Harness
module Observable = Sempe_security.Observable
module Witness = Sempe_security.Witness
module Leakage = Sempe_security.Leakage
module Attribution = Sempe_security.Attribution
module Sink = Sempe_obs.Sink

let now = Unix.gettimeofday
let out_dir = ".perfbench_out"

(* Every source of parallelism is pinned to at most the host's cores, and
   to the daemon's default of 2 workers. *)
let workers = max 1 (min 2 (Domain.recommended_domain_count ()))

(* ---- statistics ---- *)

(* Nearest-rank percentile. *)
let pct q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = pct 0.5 xs
let sum = List.fold_left ( +. ) 0.

let split3 l =
  List.fold_right (fun (a, b, c) (xs, ys, zs) -> (a :: xs, b :: ys, c :: zs)) l ([], [], [])

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The high-water mark of the OCaml heap, which is where every large
   structure of the program lives (memory images, witness buffers,
   checkpoints, caches). Unlike VmHWM it leaves out what the C allocator
   keeps after the collector frees it: on serve-mix, whose sampled
   requests allocate bursts of 8 MiB images from two worker domains,
   VmHWM moved by 40% between runs, and this by 7%. *)
let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.

(* ---- operations and their checks ---- *)

type op = {
  req : Api.request;
  doc : (string, string) result;  (** rendered document, or the failure *)
  lat : float;
  cached : bool;
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_errors : string list;
}

let tally = { attempted = 0; failed = 0; first_errors = [] }

let record_outcome = function
  | Ok () -> tally.attempted <- tally.attempted + 1
  | Error msg ->
    tally.attempted <- tally.attempted + 1;
    tally.failed <- tally.failed + 1;
    if List.length tally.first_errors < 5 then
      tally.first_errors <- msg :: tally.first_errors

let pool_map f xs =
  let pool = Pool.create ~workers () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.map pool (fun x -> try Ok (f x) with e -> Error (Printexc.to_string e)) xs)

(* In-process documents: checksums against functional baseline runs, rsa
   against its OCaml reference, every report through check_report. *)
let check_documents ops =
  let ws = Check.checksum_workloads (List.map (fun o -> o.req) ops) in
  let expected = Hashtbl.create 256 in
  List.iter2
    (fun (k, _) r ->
      match r with
      | Ok sum -> Hashtbl.replace expected k sum
      | Error msg -> record_outcome (Error ("functional reference: " ^ msg)))
    ws
    (pool_map (fun (_, w) -> Check.functional_checksum w) ws);
  List.iter
    (fun o ->
      record_outcome
        (match o.doc with
         | Error e -> Error e
         | Ok d -> (
           try Check.document ~expected o.req (Json.of_string d)
           with Not_found -> Error "no functional reference")))
    ops

(* Served replies: each distinct request is recomputed in process after
   the timed window, and every reply must equal it byte for byte. *)
let check_replies ops =
  let distinct = Hashtbl.create 512 in
  List.iter
    (fun o -> Hashtbl.replace distinct (Gen.key o.req) o.req)
    ops;
  let keys = Hashtbl.fold (fun k r acc -> (k, r) :: acc) distinct [] in
  let truth = Hashtbl.create 512 in
  List.iter2
    (fun (k, _) r -> Hashtbl.replace truth k r)
    keys
    (pool_map
       (fun (_, req) -> Json.to_string (Api.perform ~workers:1 req))
       keys);
  List.iter
    (fun o ->
      record_outcome
        (match (o.doc, Hashtbl.find truth (Gen.key o.req)) with
         | Error e, _ -> Error e
         | Ok _, Error e -> Error ("in-process Api.perform: " ^ e)
         | Ok d, Ok want ->
           if String.equal d want then Ok ()
           else Error ("reply differs from Api.perform: " ^ Gen.key o.req)))
    ops

(* Instructions and cycles a rendered document reports: a request's
   report or estimate, or both schemes of an attacker-view set. *)
let counts d =
  let j = Json.of_string d in
  match Json.member "sempe" j with
  | Some sempe ->
    let get doc k = Result.value ~default:0 (Check.int [ k ] doc) in
    let base = Option.value ~default:Json.Null (Json.member "baseline" j) in
    ( get sempe "instructions" + get base "instructions",
      get sempe "cycles" + get base "cycles" )
  | None -> Check.counts j

let total_counts docs =
  List.fold_left
    (fun (i, c) d ->
      match d with
      | Ok d ->
        let di, dc = counts d in
        (i + di, c + dc)
      | Error _ -> (i, c))
    (0, 0) docs

(* Deterministic companions over the first [k] documents of a stream:
   instructions, cycles and a digest of the bytes. *)
type companions = { instrs : int; cycles : int; digest : string }

let companions k docs =
  let docs = List.filteri (fun i _ -> i < k) docs in
  let instrs, cycles = total_counts docs in
  let bytes =
    String.concat "\n"
      (List.map (function Ok d -> d | Error e -> "error: " ^ e) docs)
  in
  { instrs; cycles; digest = Digest.to_hex (Digest.string bytes) }

(* ---- setup ---- *)

(* Set-up runs [n] times and the last one is kept. Each set-up is timed
   after a host-speed sample, like an operation, and returned with its
   factor; setup_s is the median of the scaled times. [teardown]
   releases every set-up but the last. *)
let setups = 9

let repeat_setup n setup teardown =
  let rec go i times speeds =
    let speeds = Host.sample () :: speeds in
    let t0 = now () in
    let s = setup () in
    let times = (now () -. t0) :: times in
    if i = n then
      let factors =
        Host.local_factors (List.rev (Host.sample () :: speeds)) (List.init n Fun.id)
      in
      (s, List.combine (List.rev times) factors)
    else begin
      teardown s;
      go (i + 1) times speeds
    end
  in
  go 1 [] []

(* Stream prefix replayed during set-up. *)
let warm_requests = 8

let warm_ops = function
  | "short-requests" -> 2
  | "serve-mix" -> warm_requests
  | _ -> 1

(* ---- in-process request loops: short-requests, long-detailed ---- *)

let perform req = Json.to_string (Api.perform ~workers:1 req)

let timed_perform req =
  let t0 = now () in
  let doc = try Ok (perform req) with e -> Error (Printexc.to_string e) in
  { req; doc; lat = now () -. t0; cached = false }

(* A timed window of a single-domain loop, with host-speed samples
   between operations; their time is not part of the window. *)
let window f =
  Gc.full_major ();
  Host.block 8;
  let spent0 = !Host.spent and t0 = now () in
  let r = f t0 in
  let elapsed = now () -. t0 -. (!Host.spent -. spent0) in
  let rss = (peak_heap_mb (), peak_rss_mb ()) in
  Host.block 8;
  (r, elapsed, rss)

(* A closed loop of operations. A host-speed sample comes before an
   operation when [sample_gap] has passed since the last one (so before
   every operation longer than that), and one more after the last
   operation. [step i] runs operation i, or returns [None] when the window
   is over; a slot is an operation's share of the window, generating its
   input included. Returns the operations with their factors, and the
   window's length at reference speed. *)
let sample_gap = 0.025

let closed_loop step =
  let rec go i acc speeds n last =
    let fresh = now () -. last >= sample_gap in
    let speeds, n, last =
      if fresh then (Host.sample () :: speeds, n + 1, now ()) else (speeds, n, last)
    in
    let t = now () in
    match step i with
    | None ->
      let ops, slots, at = split3 (List.rev acc) in
      let speeds = if fresh then speeds else Host.sample () :: speeds in
      let factors = Host.local_factors (List.rev speeds) at in
      (ops, factors, sum (List.map2 ( *. ) slots factors))
    | Some o -> go (i + 1) ((o, now () -. t, n - 1) :: acc) speeds n last
  in
  go 0 [] [] 0 neg_infinity

(* Closed loop, one caller. The window ends on a whole round of the
   stream, and never before [k] operations. *)
let request_loop ~seconds ~round ~k next t0 =
  closed_loop (fun n ->
      if n >= k && n mod round = 0 && now () -. t0 >= seconds then None
      else Some (timed_perform (next ())))

type e2e = {
  setup_s : (float * float) list;  (** set-up seconds and factor *)
  ops : op list;
  window : float;  (** seconds, host-speed samples excluded *)
  factors : float list;  (** host-speed factor of each operation *)
  ref_window : float;  (** the window at reference speed *)
  mem_mb : float * float;  (** peak heap and peak RSS at the window's end *)
  sim_instrs : int;  (** instructions the timed operations simulated *)
  comp : companions;
  extra : (string * string) list;  (** workload-specific human lines *)
}

let inproc_e2e ~seconds ~gen ~round ~warm ~k =
  let next, setup_s =
    repeat_setup setups
      (fun () ->
        let next = gen () in
        for _ = 1 to warm do ignore (perform (next ())) done;
        next)
      ignore
  in
  let (ops, factors, ref_window), window, mem_mb =
    window (request_loop ~seconds ~round ~k next)
  in
  check_documents ops;
  let docs = List.map (fun o -> o.doc) ops in
  { setup_s; ops; window; factors; ref_window; mem_mb;
    sim_instrs = fst (total_counts docs);
    comp = companions k docs; extra = [] }

(* ---- attacker-view ---- *)

let attribution_every = 4

(* Four ints per recorded event: pc, structure, detail, cycle. *)
let witness_mb w =
  float_of_int
    (List.fold_left (fun a s -> a + Witness.length w s) 0 Witness.streams)
  *. 32. /. 1e6

(* One secret set: every secret under SeMPE and the baseline with the
   attacker's view captured, the digest verdict over the views, and full
   attribution on every [attribution_every]-th set. The traced run also
   times a plain run and each capture on its own. *)
let attack_set ~traced ~index (set : Gen.secret_set) =
  let part scheme =
    let src, _, _, _ = Replay.setup scheme (List.hd set.Gen.workloads) in
    let built = Replay.build scheme src in
    let capture w =
      let _, globals, arrays, _ = Replay.setup scheme w in
      let run ?observe ?sink () =
        (Harness.run ~globals ~arrays ?observe ?sink built).Run.timing
      in
      let r = Observable.recorder () and wit = Witness.create () in
      let witness = Sink.of_probe (Witness.probe wit) in
      let timing =
        if traced then begin
          ignore (Span.run "pipeline.plain_run" (fun () -> run ()));
          let timing =
            Span.run "security.observable_run" (fun () ->
                run ~observe:(Observable.feed r) ())
          in
          ignore (Span.run "security.witness_run" (fun () -> run ~sink:witness ()));
          timing
        end
        else run ~observe:(Observable.feed r) ~sink:witness ()
      in
      (Observable.view r timing, wit, timing)
    in
    let runs = List.map capture set.Gen.workloads in
    let leaky =
      Span.run "security.leaky_channels" (fun () ->
          Leakage.leaky_channels (List.map (fun (v, _, _) -> v) runs))
    in
    let witnesses = List.map (fun (_, w, _) -> w) runs in
    let divergent =
      if index mod attribution_every = 0 then
        Some
          (Attribution.total_divergent
             (Span.run "security.attribute" (fun () ->
                  Attribution.attribute witnesses)))
      else None
    in
    let total f = List.fold_left (fun acc (_, _, t) -> acc + f t) 0 runs in
    let doc =
      ( Scheme.name scheme,
        Json.Obj
          [ ( "leaky",
              Json.List
                (List.map (fun c -> Json.Str (Leakage.channel_name c)) leaky) );
            ( "divergent",
              match divergent with Some n -> Json.Int n | None -> Json.Null );
            ("instructions", Json.Int (total (fun t -> t.Sempe_pipeline.Timing.instructions)));
            ("cycles", Json.Int (total (fun t -> t.Sempe_pipeline.Timing.cycles))) ] )
    in
    (doc, leaky, divergent, witnesses)
  in
  let sempe_doc, sempe_leaky, sempe_div, sempe_witnesses = part Scheme.Sempe in
  let base_doc, base_leaky, base_div, base_witnesses = part Scheme.Baseline in
  let doc =
    Json.Obj
      [ ("set", Json.Str set.Gen.label);
        ( "secrets",
          Json.List
            (List.map (fun w -> Json.Str (Replay.describe w)) set.Gen.workloads) );
        sempe_doc; base_doc ]
  in
  (* The paper's security claim: nothing leaks under SeMPE, the baseline
     leaks. *)
  let verdict =
    if sempe_leaky <> [] then Error (set.Gen.label ^ ": SeMPE leaks")
    else if sempe_div <> None && sempe_div <> Some 0 then
      Error (set.Gen.label ^ ": SeMPE runs diverge")
    else if base_leaky = [] then Error (set.Gen.label ^ ": baseline shows no leak")
    else if base_div = Some 0 then
      Error (set.Gen.label ^ ": baseline runs do not diverge")
    else Ok ()
  in
  ( Json.to_string doc, verdict, base_div,
    List.map witness_mb (sempe_witnesses @ base_witnesses) )

let attacker_e2e ~seconds ~seed ~k =
  let next, setup_s =
    repeat_setup setups
      (fun () ->
        let next = Gen.attacker_view seed in
        for _ = 1 to warm_ops "attacker-view" do
          ignore (attack_set ~traced:false ~index:1 (next ()))
        done;
        next)
      ignore
  in
  let loop t0 =
    closed_loop (fun i ->
        if i >= k && i mod 3 = 0 && now () -. t0 >= seconds then None
        else begin
          let s = now () in
          let r =
            try
              let doc, verdict, _, _ = attack_set ~traced:false ~index:i (next ()) in
              (Ok doc, verdict)
            with e -> (Error (Printexc.to_string e), Ok ())
          in
          Some (r, now () -. s)
        end)
  in
  let (results, factors, ref_window), window, mem_mb = window loop in
  let docs = List.map (fun ((d, _), _) -> d) results in
  List.iter
    (fun ((d, v), _) ->
      record_outcome (match d with Error e -> Error e | Ok _ -> v))
    results;
  let ops =
    List.map
      (fun ((doc, _), lat) -> { req = Api.Leakage; doc; lat; cached = false })
      results
  in
  { setup_s; ops; window; factors; ref_window; mem_mb;
    sim_instrs = fst (total_counts docs); comp = companions k docs; extra = [] }

(* ---- serve-mix ---- *)

(* Two closed-loop clients in threads. They meet every [epoch] requests;
   the last to arrive decides whether the window is over and, if not,
   draws one fresh request that both then send at once (coalescing). *)
let epoch = 16

type meet = {
  mm : Mutex.t;
  cond : Condition.t;
  mutable waiting : int;
  mutable generation : int;
  mutable decision : Api.request option;
}

let meet b decide =
  Mutex.lock b.mm;
  let g = b.generation in
  b.waiting <- b.waiting + 1;
  if b.waiting = 2 then begin
    b.waiting <- 0;
    b.decision <- decide ();
    b.generation <- g + 1;
    Condition.broadcast b.cond
  end
  else
    while b.generation = g do
      Condition.wait b.cond b.mm
    done;
  let d = b.decision in
  Mutex.unlock b.mm;
  d

type session = {
  server : Server.t;
  addr : Server.addr;
  conns : Client.conn array;
  streams : (unit -> Api.request) array;
}

let start_session seed universe =
  let sock = Printf.sprintf "%s/serve-%d.sock" out_dir (Unix.getpid ()) in
  let addr = Server.Unix_sock sock in
  let config = { Server.default_config with Server.workers } in
  let server = Server.start ~config addr in
  let conns = Array.init 2 (fun _ -> Client.connect addr) in
  let streams = Array.init 2 (fun c -> Gen.serve_client seed ~universe c) in
  (* The warm-up replays the most popular keys, one of each class. *)
  for i = 0 to warm_requests - 1 do
    match Client.call conns.(0) universe.(i) with
    | Ok _ -> ()
    | Error e -> record_outcome (Error ("warm-up: " ^ e.Client.message))
  done;
  { server; addr; conns; streams }

let stop_session s =
  Array.iter Client.close s.conns;
  Server.stop s.server;
  match s.addr with
  | Server.Unix_sock p -> ( try Sys.remove p with Sys_error _ -> ())
  | Server.Tcp _ -> ()

type serve_run = {
  s_setup : (float * float) list;  (** set-up seconds and factor *)
  s_ops : op list;  (** every reply, both clients *)
  s_client0 : op list;  (** client 0's stream replies, in order *)
  s_window : float;
  s_mem : float * float;
  stats : Json.t;
}

let serve_session ~seed ~seconds ~setups ~k =
  let universe = Gen.serve_universe seed in
  let s, s_setup =
    repeat_setup setups (fun () -> start_session seed universe) stop_session
  in
  Gc.full_major ();
  Host.block 8;
  let pairs = Gen.serve_pairs seed in
  let b =
    { mm = Mutex.create (); cond = Condition.create (); waiting = 0;
      generation = 0; decision = None }
  in
  let results = Array.make 2 [] in
  let spent0 = !Host.spent and t0 = now () in
  let client c =
    let conn = ref s.conns.(c) in
    let sent = ref 0 in
    let send ~stream req =
      let t = now () in
      let r =
        try
          Span.run_on ~tid:(c + 1) "serve.Client.call" (fun () ->
              Client.call_cached !conn req)
        with e -> Error { Client.code = "exception"; message = Printexc.to_string e }
      in
      let lat = now () -. t in
      let doc, cached =
        match r with
        | Ok (j, cached) -> (Ok (Json.to_string j), cached)
        | Error e ->
          if e.Client.code = "closed" || e.Client.code = "exception" then begin
            Client.close !conn;
            try conn := Client.connect s.addr with _ -> ()
          end;
          (Error (e.Client.code ^ ": " ^ e.Client.message), false)
      in
      results.(c) <- (stream, { req; doc; lat; cached }) :: results.(c)
    in
    let rec go () =
      for _ = 1 to epoch do
        send ~stream:true (s.streams.(c) ());
        incr sent
      done;
      (* Both clients wait here with no request in flight, so the
         daemon is idle while the host-speed loop runs. *)
      let decide () =
        Host.between ();
        if now () -. t0 >= seconds && !sent >= k then None else Some (pairs ())
      in
      match meet b decide with
      | None -> ()
      | Some req ->
        send ~stream:false req;
        go ()
    in
    go ();
    s.conns.(c) <- !conn
  in
  let threads = Array.init 2 (Thread.create client) in
  Array.iter Thread.join threads;
  let s_window = now () -. t0 -. (!Host.spent -. spent0) in
  let s_mem = (peak_heap_mb (), peak_rss_mb ()) in
  let stats = Server.stats_json s.server in
  stop_session s;
  Host.block 8;
  let all = List.concat_map (fun l -> List.rev_map snd l) (Array.to_list results) in
  let s_client0 =
    List.filter_map
      (fun (stream, o) -> if stream then Some o else None)
      (List.rev results.(0))
  in
  { s_setup; s_ops = all; s_client0; s_window; s_mem; stats }

let serve_e2e ~seconds ~seed ~k =
  let r = serve_session ~seed ~seconds ~setups ~k in
  check_replies r.s_ops;
  let computed = List.filter (fun o -> not o.cached) r.s_ops in
  let lat_ms pred =
    List.filter_map
      (fun o -> if pred o then Some (o.lat *. 1e3) else None)
      r.s_ops
  in
  let hits = lat_ms (fun o -> o.cached) and misses = lat_ms (fun o -> not o.cached) in
  let extra =
    [ ("hit_latency_p50_ms", Printf.sprintf "%.4f ms (%d hits)" (median hits) (List.length hits));
      ("miss_latency_p50_ms", Printf.sprintf "%.4f ms (%d misses)" (median misses) (List.length misses));
      ("daemon_stats", Json.to_string r.stats) ]
  in
  (* Two clients overlap, so operations share the run-wide factor. *)
  let f = Host.factor () in
  { setup_s = r.s_setup; ops = r.s_ops; window = r.s_window;
    factors = List.map (fun _ -> f) r.s_ops; ref_window = r.s_window *. f;
    mem_mb = r.s_mem;
    sim_instrs = fst (total_counts (List.map (fun o -> o.doc) computed));
    comp = companions k (List.map (fun o -> o.doc) r.s_client0);
    extra }

(* ---- workloads ---- *)

let workloads = [ "short-requests"; "long-detailed"; "attacker-view"; "serve-mix" ]

(* Operations the companions cover; every run completes at least these. *)
let companion_ops = function
  | "short-requests" -> 32
  | "long-detailed" -> 4
  | "attacker-view" -> 6
  | _ -> 64

let e2e ~workload ~seed ~seconds =
  let k = companion_ops workload and warm = warm_ops workload in
  match workload with
  | "short-requests" ->
    inproc_e2e ~seconds ~gen:(fun () -> Gen.short_requests seed) ~round:8
      ~warm ~k
  | "long-detailed" ->
    inproc_e2e ~seconds ~gen:(fun () -> Gen.long_detailed seed) ~round:8
      ~warm ~k
  | "attacker-view" -> attacker_e2e ~seconds ~seed ~k
  | _ -> serve_e2e ~seconds ~seed ~k

(* ---- the traced run ---- *)

type run_stats = {
  instrs : int;
  mem_words : int;
  static_instrs : int;
  detailed_s : float;
  minor_words : float;
  functional_s : float;
}

(* One compute request, untraced and traced (alternating which goes
   first), plus a functional-only run of each detailed run. *)
type traced_op = {
  t_req : Api.request;
  untraced_s : float;
  traced_s : float;
  alloc_bytes : float;
  t_doc : (string, string) result;
  runs : run_stats list;
  req_id : int;
}

let compute_op i req =
  let untraced () =
    Span.enabled := false;
    let a0 = Gc.allocated_bytes () and t0 = now () in
    let doc = perform req in
    let dt = now () -. t0 in
    Span.enabled := true;
    (doc, dt, Gc.allocated_bytes () -. a0)
  in
  let traced () =
    Span.current_req := i;
    let t0 = now () in
    let doc, runs = Replay.perform req in
    (doc, runs, now () -. t0)
  in
  let (want, untraced_s, alloc_bytes), (got, runs, traced_s) =
    if i mod 2 = 0 then
      let u = untraced () in
      (u, traced ())
    else
      let t = traced () in
      (untraced (), t)
  in
  let functional (r : Replay.run) =
    let session =
      Span.run "core.functional_setup" (fun () ->
          Exec.start ~config:(Replay.exec_config r.Replay.built.Harness.scheme)
            ~init_mem:r.Replay.init_mem r.Replay.built.Harness.prog)
    in
    let t0 = now () in
    let res = Span.run "core.functional_run" (fun () -> Exec.finish session) in
    (now () -. t0, res.Exec.regs.(Sempe_isa.Reg.rv) = Replay.return_value r)
  in
  (* Outside every request: these runs are not part of Api.perform. *)
  Span.current_req := -1;
  let fs = List.map functional runs in
  (* Summaries only: a run holds its 8 MiB memory image. *)
  let stats =
    List.map2
      (fun (r : Replay.run) (functional_s, _) ->
        { instrs = r.Replay.exec.Exec.dyn_instrs;
          mem_words = Array.length r.Replay.exec.Exec.memory;
          static_instrs = Sempe_isa.Program.length r.Replay.built.Harness.prog;
          detailed_s = r.Replay.detailed_s;
          minor_words = r.Replay.minor_words;
          functional_s })
      runs fs
  in
  let doc =
    if not (String.equal want got) then
      Error "traced replay renders different bytes than Api.perform"
    else if List.exists (fun (_, same) -> not same) fs then
      Error "functional-only run returns a different value"
    else Ok got
  in
  { t_req = req; untraced_s; traced_s; alloc_bytes; t_doc = doc;
    runs = stats; req_id = i }

let compute_phase ?(first_id = 0) ~budget ~min_ops next =
  let t0 = now () in
  let rec go i acc =
    if i >= min_ops && now () -. t0 >= budget then List.rev acc
    else
      let op =
        try compute_op (first_id + i) (next ())
        with e ->
          Span.enabled := true;
          { t_req = Api.Leakage; untraced_s = 0.; traced_s = 0.; alloc_bytes = 0.;
            t_doc = Error (Printexc.to_string e); runs = [];
            req_id = first_id + i }
      in
      go (i + 1) (op :: acc)
  in
  go 0 []

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

let compute_metrics ops =
  let spans = Span.all () in
  let per_call name =
    median
      (List.filter_map
         (fun s -> if s.Span.name = name then Some (Span.dur s *. 1e3) else None)
         spans)
  in
  let runs = List.concat_map (fun o -> o.runs) ops in
  let instrs =
    float_of_int (List.fold_left (fun a r -> a + r.instrs) 0 runs)
  in
  let functional = sum (List.map (fun r -> r.functional_s) runs) in
  let detailed = sum (List.map (fun r -> r.detailed_s) runs) in
  let words = sum (List.map (fun r -> r.minor_words) runs) in
  (* Totals over the same requests: the per-request costs are spread over
     two orders of magnitude, so medians of either side would compare
     different requests. *)
  let untraced = sum (List.map (fun o -> o.untraced_s) ops) in
  let traced = sum (List.map (fun o -> o.traced_s) ops) in
  [ m "workloads.gen_ms" "ms" (per_call "workloads.setup");
    m "lang.transform_ms" "ms" (per_call "lang.transform");
    m "lang.codegen_ms" "ms" (per_call "lang.codegen");
    m "lang.static_instrs" "count"
      (median (List.map (fun r -> float_of_int r.static_instrs) runs));
    m "core.machine_setup_ms" "ms" (per_call "core.machine_setup");
    m "core.mem_image_words" "count"
      (median (List.map (fun r -> float_of_int r.mem_words) runs));
    m "pipeline.timing_create_ms" "ms" (per_call "pipeline.timing_create");
    m "gc.alloc_mb_per_op" "MB" (median (List.map (fun o -> o.alloc_bytes /. 1e6) ops));
    m "core.exec_ns_per_instr" "ns/instr" (functional /. instrs *. 1e9);
    m "pipeline.timing_ns_per_instr" "ns/instr" ((detailed -. functional) /. instrs *. 1e9);
    m "pipeline.alloc_words_per_instr" "words/instr" (words /. instrs);
    m "obs.render_ms" "ms" (per_call "obs.render");
    m "trace.overhead_pct" "%" ((traced -. untraced) /. untraced *. 100.) ]

(* Self time per layer, as a mean per replayed request: the layers of a
   [serve.Api.perform] tree add up to the traced request's duration. *)
let self_layers = [ "serve"; "workloads"; "lang"; "core"; "pipeline"; "obs" ]

let layer_self_times ops =
  let ids = Hashtbl.create 512 in
  List.iter (fun o -> Hashtbl.replace ids o.req_id ()) ops;
  let totals = Hashtbl.create 8 in
  let requests = ref 0 in
  List.iter
    (fun ((s : Span.t), self) ->
      if Hashtbl.mem ids s.Span.req then begin
        if s.Span.name = "serve.Api.perform" then incr requests;
        let l = Span.layer s.Span.name in
        Hashtbl.replace totals l
          (self +. Option.value ~default:0. (Hashtbl.find_opt totals l))
      end)
    (Span.self_times (Span.all ()));
  List.map
    (fun l ->
      ( l,
        Option.value ~default:0. (Hashtbl.find_opt totals l)
        *. 1e3 /. float_of_int !requests ))
    self_layers

let security_phase ~budget ~min_sets next =
  let t0 = now () in
  let rec go i acc =
    if i >= min_sets && now () -. t0 >= budget then List.rev acc
    else begin
      Span.current_req := 100_000 + i;
      let r =
        try
          let doc, verdict, div, wits = attack_set ~traced:true ~index:i (next ()) in
          (match verdict with Ok () -> Ok doc | Error e -> Error e), div, wits
        with e -> (Error (Printexc.to_string e), None, [])
      in
      go (i + 1) (r :: acc)
    end
  in
  let sets = go 0 [] in
  List.iter (fun (d, _, _) -> record_outcome (Result.map ignore d)) sets;
  let spans = Span.all () in
  let total name =
    sum (List.filter_map (fun s -> if s.Span.name = name then Some (Span.dur s) else None) spans)
  in
  let plain = total "pipeline.plain_run" in
  let instrs =
    float_of_int (fst (total_counts (List.map (fun (d, _, _) -> d) sets)))
  in
  let per_instr name = (total name -. plain) /. instrs *. 1e9 in
  ( sets,
    [ m "security.witness_ns_per_instr" "ns/instr" (per_instr "security.witness_run");
      m "security.observable_ns_per_instr" "ns/instr" (per_instr "security.observable_run");
      m "security.attribute_ms" "ms"
        (median
           (List.filter_map
              (fun s ->
                if s.Span.name = "security.attribute" then Some (Span.dur s *. 1e3)
                else None)
              spans));
      m "security.witness_mb" "MB" (median (List.concat_map (fun (_, _, w) -> w) sets));
      m "security.divergent_events" "count"
        (median
           (List.filter_map
              (fun (_, d, _) -> Option.map float_of_int d)
              sets)) ] )

let sampling_metrics ops =
  let docs =
    List.filter_map
      (fun o ->
        match (o.t_req, o.t_doc) with
        | Api.Sample _, Ok d -> Json.member "sampling" (Json.of_string d)
        | _ -> None)
      ops
  in
  let int k j = float_of_int (Result.value ~default:0 (Check.int [ k ] j)) in
  let exact j = Json.member "exact" j = Some (Json.Bool true) in
  let sampled = List.filter (fun j -> not (exact j)) docs in
  [ m "sampling.estimate_ms" "ms"
      (median
         (List.filter_map
            (fun s ->
              if s.Span.name = "sampling.estimate" then Some (Span.dur s *. 1e3)
              else None)
            (Span.all ())));
    m "sampling.measured_fraction" "ratio"
      (sum (List.map (int "measured_instructions") sampled)
      /. sum (List.map (int "instructions") sampled));
    m "sampling.exact_fallbacks" "count"
      (float_of_int (List.length (List.filter exact docs)));
    m "sampling.checkpoint_kb" "KB"
      (median (List.map (fun j -> int "checkpoint_bytes" j /. 1024.) sampled)) ]

let serve_metrics (r : serve_run) =
  let stat path =
    match Check.float path r.stats with Ok v -> v | Error _ -> nan
  in
  let ratio cache =
    let h = stat [ cache; "hits" ] and mi = stat [ cache; "misses" ] in
    h /. (h +. mi)
  in
  let lat pred =
    median (List.filter_map (fun o -> if pred o then Some (o.lat *. 1e3) else None) r.s_ops)
  in
  let hit = lat (fun o -> o.cached) and daemon = stat [ "latency_s"; "p50" ] *. 1e3 in
  (* On a hit the daemon computes only [Api.cache_key]; the rest of a
     hit's client latency is frame, decode, handoff and reply. *)
  let key_ms =
    median
      (List.filter_map
         (fun o ->
           if o.cached then begin
             let t0 = now () in
             ignore (Api.cache_key o.req);
             Some ((now () -. t0) *. 1e3)
           end
           else None)
         r.s_ops)
  in
  [ m "serve.result_hit_ratio" "ratio" (ratio "result_cache");
    m "serve.plan_hit_ratio" "ratio" (ratio "plan_cache");
    m "serve.coalesced" "count" (stat [ "coalesced" ]);
    m "serve.evictions" "count" (stat [ "result_cache"; "evictions" ]);
    m "serve.max_in_flight" "count" (stat [ "max_in_flight" ]);
    m "serve.daemon_p50_ms" "ms" daemon;
    m "serve.hit_p50_ms" "ms" hit;
    m "serve.miss_p50_ms" "ms" (lat (fun o -> not o.cached));
    m "serve.socket_ms" "ms" (hit -. key_ms);
    m "serve.compute_ms_per_miss" "ms"
      (stat [ "result_cache"; "total_cost_s" ] /. stat [ "executed" ] *. 1e3) ]

(* Sample requests of the serve universe, plus one whose sampling costs
   as much as a full run (warmup as long as the interval at 50%
   coverage), which the cost model answers on the exact path. *)
let sample_stream seed =
  let samples =
    Array.of_list
      (List.filter
         (function Api.Sample _ -> true | _ -> false)
         (Array.to_list (Gen.serve_universe seed)))
  in
  let i = ref (-1) in
  fun () ->
    incr i;
    if !i = 1 then
      Api.Sample
        { scheme = Scheme.Sempe;
          workload = Api.Rsa { key = seed land 0xffff };
          strict_oob = false;
          params = { interval = 20_000; coverage = 0.5; warmup = 20_000 } }
    else samples.(!i mod Array.length samples)

let traced ~workload ~seed ~seconds =
  Host.block 8;
  Span.enabled := true;
  let k = companion_ops workload in
  let native w = if w = workload then 0.55 else 0.15 in
  let compute_budget = seconds *. max (native "short-requests") (native "long-detailed") in
  (* The native stream skips the same warm-up prefix as the untraced
     run, so both report the same companions. *)
  let skip n next =
    for _ = 1 to n do ignore (next ()) done;
    next
  in
  let compute_next, compute_min =
    if workload = "long-detailed" then (skip (warm_ops workload) (Gen.long_detailed seed), k)
    else if workload = "short-requests" then (skip (warm_ops workload) (Gen.short_requests seed), k)
    else (Gen.short_requests seed, 8)
  in
  let cops = compute_phase ~budget:compute_budget ~min_ops:compute_min compute_next in
  let sets, security =
    security_phase ~budget:(seconds *. native "attacker-view")
      ~min_sets:(if workload = "attacker-view" then k else 1)
      (skip (warm_ops "attacker-view") (Gen.attacker_view seed))
  in
  let sops =
    compute_phase ~first_id:200_000 ~budget:(seconds *. 0.15) ~min_ops:3
      (sample_stream seed)
  in
  let serve =
    serve_session ~seed ~seconds:(seconds *. native "serve-mix") ~setups:1
      ~k:(if workload = "serve-mix" then k else epoch)
  in
  Span.enabled := false;
  Host.block 8;
  let all_cops = cops @ sops in
  List.iter (fun o -> record_outcome (Result.map ignore o.t_doc)) all_cops;
  check_documents
    (List.filter_map
       (fun o ->
         match o.t_doc with
         | Ok _ -> Some { req = o.t_req; doc = o.t_doc; lat = 0.; cached = false }
         | Error _ -> None)
       all_cops);
  check_replies serve.s_ops;
  let comp =
    match workload with
    | "attacker-view" -> companions k (List.map (fun (d, _, _) -> d) sets)
    | "serve-mix" -> companions k (List.map (fun o -> o.doc) serve.s_client0)
    | _ -> companions k (List.map (fun o -> o.t_doc) cops)
  in
  let selfs = layer_self_times cops in
  let untraced_ms =
    sum (List.map (fun o -> o.untraced_s) cops) *. 1e3
    /. float_of_int (List.length cops)
  in
  let metrics =
    compute_metrics cops @ security @ sampling_metrics sops @ serve_metrics serve
    @ List.map (fun (l, v) -> m ("self." ^ l ^ "_ms") "ms" v) selfs
    @ [ m "host.calibration_ms" "ms" (Host.median () *. 1e3);
        m "core.sim_instrs" "count" (float_of_int comp.instrs);
        m "pipeline.sim_cycles" "count" (float_of_int comp.cycles) ]
  in
  (metrics, comp, (sum (List.map snd selfs), untraced_ms), List.length (Span.all ()))

(* ---- command line ---- *)

let usage =
  "usage: main.exe --workload (short-requests|long-detailed|attacker-view|serve-mix) \
   --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest
      when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
      if List.mem_assoc flag acc then die ("duplicate " ^ flag);
      go ((flag, value) :: acc) rest
    | [ flag ] -> die ("missing value for " ^ flag)
    | arg :: _ -> die ("unknown argument " ^ arg)
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get flag =
    match List.assoc_opt flag args with
    | Some v -> v
    | None -> die ("missing " ^ flag)
  in
  let workload = get "--workload" in
  if not (List.mem workload workloads) then die ("unknown workload " ^ workload);
  let seed =
    match int_of_string_opt (get "--seed") with
    | Some s when s >= 0 -> s
    | _ -> die "--seed must be a non-negative integer"
  in
  let seconds =
    match float_of_string_opt (get "--seconds") with
    | Some s when s > 0. && s <= 600. -> s
    | _ -> die "--seconds must be a number in (0, 600]"
  in
  let trace =
    match get "--trace" with
    | "0" -> false
    | "1" -> true
    | _ -> die "--trace must be 0 or 1"
  in
  (workload, seed, seconds, trace)

let print_result metrics =
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        record_outcome (Error (x.name ^ " was not measured")))
    metrics;
  let correct = tally.failed = 0 && tally.attempted > 0 in
  List.iter (fun e -> Printf.printf "error: %s\n" e) (List.rev tally.first_errors);
  Printf.printf "error_rate %.6f (%d failed of %d attempted)\n"
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted))
    tally.failed tally.attempted;
  let metrics =
    Json.Obj
      (List.map
         (fun x ->
           (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit) ]))
         metrics)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 tally.attempted));
            ("failed", Json.Int tally.failed);
            ("metrics", metrics) ]))

let () =
  let workload, seed, seconds, trace = parse_args Sys.argv in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Sempe_experiments.Batch.set_jobs workers;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b workers=%d\n%!" workload
    seed seconds trace workers;
  if trace then begin
    let metrics, comp, (self_sum, untraced_ms), nspans =
      traced ~workload ~seed ~seconds
    in
    let path = Printf.sprintf "%s/trace-%s-%d.json" out_dir workload seed in
    Span.write_perfetto path;
    List.iter
      (fun x -> Printf.printf "  %-34s %14.4f %s\n" x.name x.value x.unit)
      metrics;
    Printf.printf
      "layer self times sum to %.4f ms per request; untraced Api.perform %.4f \
       ms on the same requests (%d spans in %s)\n"
      self_sum untraced_ms nspans path;
    Printf.printf "companions instrs=%d cycles=%d digest=%s\n" comp.instrs
      comp.cycles comp.digest;
    print_result metrics
  end
  else begin
    let r = e2e ~workload ~seed ~seconds in
    let n = List.length r.ops in
    (* Each operation's and set-up's time scales by its own host-speed
       factor; rates are over the scaled window. *)
    let f = Host.factor () in
    let metrics ~scaled =
      let lat =
        List.map2
          (fun o g -> o.lat *. 1e3 *. if scaled then g else 1.)
          r.ops r.factors
      and win = if scaled then r.ref_window else r.window in
      [ m "setup_s" "s"
          (median (List.map (fun (t, g) -> t *. if scaled then g else 1.) r.setup_s));
        m "throughput_ops_s" "ops/s" (float_of_int n /. win);
        m "latency_p50_ms" "ms" (median lat);
        m "sim_minstr_per_s" "Minstr/s" (float_of_int r.sim_instrs /. win /. 1e6);
        m "peak_heap_mb" "MB" (fst r.mem_mb) ]
    in
    Printf.printf
      "host speed: loop median %.4f ms, factor %.4f, per-operation factors \
       %.4f..%.4f (reference %.4f ms)\n"
      (Host.median () *. 1e3) f
      (List.fold_left min infinity r.factors)
      (List.fold_left max 0. r.factors)
      (Host.reference_s *. 1e3);
    List.iter2
      (fun raw x ->
        Printf.printf "  %-20s %14.4f %s  (raw %.4f)\n" x.name x.value x.unit
          raw.value)
      (metrics ~scaled:false) (metrics ~scaled:true);
    let lat = List.map2 (fun o g -> o.lat *. 1e3 *. g) r.ops r.factors in
    let metrics = metrics ~scaled:true in
    Printf.printf "  %-20s %14.4f MB (VmHWM)\n" "peak_rss_mb" (snd r.mem_mb);
    if n >= 200 then
      Printf.printf "  %-20s %14.4f ms (%d samples, %d beyond)\n" "latency_p95_ms"
        (pct 0.95 lat) n (n - int_of_float (ceil (0.95 *. float_of_int n)));
    List.iter (fun (k, v) -> Printf.printf "  %-20s %s\n" k v) r.extra;
    Printf.printf "setup runs %s s; window %.3f s, %d ops\n"
      (String.concat ", " (List.map (fun (t, _) -> Printf.sprintf "%.4f" t) r.setup_s))
      r.window n;
    Printf.printf "companions instrs=%d cycles=%d digest=%s\n" r.comp.instrs
      r.comp.cycles r.comp.digest;
    print_result metrics
  end
