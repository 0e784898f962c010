module Json = Sempe_obs.Json
module Pool = Sempe_util.Pool
module Sampling = Sempe_sampling.Sampling

type addr = Wire.addr = Unix_sock of string | Tcp of string * int

type config = {
  workers : int;
  result_entries : int;
  plan_entries : int;
  timeout_s : float;
  max_connections : int;
  store_dir : string option;
  verbose : bool;
}

let default_config =
  {
    workers = 2;
    result_entries = 128;
    plan_entries = 32;
    timeout_s = 300.;
    max_connections = 64;
    store_dir = None;
    verbose = false;
  }

(* One coalescing slot per distinct in-flight request: the first arrival
   creates the slot and submits the job, later identical requests just
   poll the shared promise. [promise] is [None] for the moment between
   slot creation and [Pool.submit] returning (on a size-1 pool that spans
   the whole execution, which runs inline). The settled value carries the
   job's wall seconds so the cache can record the recompute cost. *)
type inflight = {
  mutable promise : (Json.t * float, string) result Pool.promise option;
}

type t = {
  cfg : config;
  wire : Wire.t;
  pool : Pool.t;
  m : Mutex.t;
  results : (int list, Json.t) Cache.t;
  plans : (int list, Sampling.plan) Cache.t;
  inflight : (int list, inflight) Hashtbl.t;
  mutable timeouts : int;
  mutable coalesced : int;
  mutable executed : int;
  mutable disk_loaded_results : int;
  mutable disk_loaded_plans : int;
}

let addr t = Wire.addr t.wire

let request_stop t = Wire.request_stop t.wire

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let cache_json c =
  Json.Obj
    [
      ("entries", Json.Int (Cache.length c));
      ("capacity", Json.Int (Cache.capacity c));
      ("hits", Json.Int (Cache.hits c));
      ("misses", Json.Int (Cache.misses c));
      ("evictions", Json.Int (Cache.evictions c));
      ("cost_evicted_s", Json.Float (Cache.cost_evicted_s c));
      ("total_cost_s", Json.Float (Cache.total_cost_s c));
    ]

let stats_json t =
  let w = Wire.stats_fields t.wire in
  let wire key = (key, List.assoc key w) in
  locked t (fun () ->
      Json.Obj
        [
          wire "requests";
          wire "ok";
          wire "errors";
          ("timeouts", Json.Int t.timeouts);
          ("executed", Json.Int t.executed);
          ("coalesced", Json.Int t.coalesced);
          ("disk_loaded_results", Json.Int t.disk_loaded_results);
          ("disk_loaded_plans", Json.Int t.disk_loaded_plans);
          ("result_cache", cache_json t.results);
          ("plan_cache", cache_json t.plans);
          wire "connections";
          wire "in_flight";
          wire "max_in_flight";
          wire "latency_s";
        ])

(* ---- request execution ---- *)

let finalize t key entry r =
  locked t (fun () ->
      match Hashtbl.find_opt t.inflight key with
      | Some e when e == entry ->
        Hashtbl.remove t.inflight key;
        (match r with
         | Ok (json, dt) -> Cache.add ~cost:dt t.results key json
         | Error _ -> ())
      | _ -> ())

let poll_entry t key entry ~t0 =
  let deadline =
    if t.cfg.timeout_s > 0. then t0 +. t.cfg.timeout_s else infinity
  in
  let rec go () =
    let promise = locked t (fun () -> entry.promise) in
    let settled =
      match promise with
      | None -> None
      | Some p -> (
        try Pool.peek p with Pool.Shutdown -> Some (Error "shutting down"))
    in
    match settled with
    | Some r ->
      finalize t key entry r;
      (match r with
       | Ok (json, _) -> Wire.Ok_reply (json, false)
       | Error msg -> Wire.Error_reply ("failed", msg))
    | None ->
      if Pool.now_s () > deadline then begin
        (* The execution keeps running and will be adopted into the cache
           by the next request for the same key — only this reply gives
           up. *)
        locked t (fun () -> t.timeouts <- t.timeouts + 1);
        Wire.Error_reply
          ( "timeout",
            Printf.sprintf "no result within %.1fs (request still running)"
              t.cfg.timeout_s )
      end
      else begin
        Thread.delay 0.002;
        go ()
      end
  in
  go ()

let serve_request t req ~t0 =
  match Api.cache_key req with
  | exception e -> Wire.Error_reply ("failed", Printexc.to_string e)
  | key -> (
    let action =
      locked t (fun () ->
          match Cache.find t.results key with
          | Some json -> `Hit json
          | None -> (
            match Hashtbl.find_opt t.inflight key with
            | Some entry ->
              t.coalesced <- t.coalesced + 1;
              `Join entry
            | None ->
              let entry = { promise = None } in
              Hashtbl.replace t.inflight key entry;
              t.executed <- t.executed + 1;
              let plan, record_pkey =
                match Api.plan_key req with
                | None -> (None, None)
                | Some pkey -> (
                  match Cache.find t.plans pkey with
                  | Some p -> (Some p, None)
                  | None -> (None, Some pkey))
              in
              `Exec (entry, plan, record_pkey)))
    in
    match action with
    | `Hit json -> Wire.Ok_reply (json, true)
    | `Join entry -> poll_entry t key entry ~t0
    | `Exec (entry, plan, record_pkey) ->
      (* Inner parallelism stays at 1: concurrency comes from serving
         many requests on the pool, not from nesting domain pools per
         request (the documents are worker-count-independent anyway).
         The job times its own [Api.perform] call: that wall time is the
         entry's recompute cost, which cost-aware eviction minimizes the
         loss of. A recorded plan is charged the same cost — losing it
         forfeits the same fast-forward pass. *)
      let job () =
        let jt0 = Pool.now_s () in
        match
          let recorded = ref None in
          let plan_out =
            match record_pkey with
            | None -> None
            | Some _ -> Some (fun p -> recorded := Some p)
          in
          let json = Api.perform ~workers:1 ?plan ?plan_out req in
          (json, !recorded)
        with
        | json, recorded ->
          let dt = Pool.now_s () -. jt0 in
          (match (record_pkey, recorded) with
           | Some pkey, Some p ->
             locked t (fun () -> Cache.add ~cost:dt t.plans pkey p)
           | _ -> ());
          Ok (json, dt)
        | exception Pool.Shutdown -> Error "shutting down"
        | exception e -> Error (Printexc.to_string e)
      in
      let p = Pool.submit t.pool job in
      locked t (fun () -> entry.promise <- Some p);
      poll_entry t key entry ~t0)

let handle t req _payload =
  let t0 = Pool.now_s () in
  let r = serve_request t req ~t0 in
  if t.cfg.verbose then
    Printf.eprintf "[serve] %s -> %s in %.3fs\n%!"
      (Json.to_string (Api.request_to_json req))
      (match r with
       | Wire.Ok_reply (_, true) -> "hit"
       | Wire.Error_reply (code, _) -> code
       | Wire.Ok_reply (_, false) | Wire.Relay _ -> "ok")
      (Pool.now_s () -. t0);
  r

(* ---- lifecycle ---- *)

(* Runs once the listener has drained and joined every connection: the
   caches are quiescent, flush them. A failed flush must not turn a
   graceful shutdown into a crash — the store is an optimization. *)
let on_stop t () =
  Pool.shutdown ~drain:true t.pool;
  match t.cfg.store_dir with
  | None -> ()
  | Some dir -> (
    try
      Persist.save ~dir
        ~responses:(Cache.to_list t.results)
        ~plans:(Cache.to_list t.plans)
    with e ->
      Printf.eprintf "[serve] store flush to %s failed: %s\n%!" dir
        (Printexc.to_string e))

let start ?(config = default_config) address =
  let wire = Wire.listen ~max_connections:config.max_connections address in
  let t =
    {
      cfg = config;
      wire;
      pool = Pool.create ~workers:config.workers ();
      m = Mutex.create ();
      results = Cache.create ~capacity:config.result_entries;
      plans = Cache.create ~capacity:config.plan_entries;
      inflight = Hashtbl.create 16;
      timeouts = 0;
      coalesced = 0;
      executed = 0;
      disk_loaded_results = 0;
      disk_loaded_plans = 0;
    }
  in
  (* Warm start: reload whatever the previous run flushed. Entries go in
     oldest-first so the cache rebuilds the recorded recency order (and,
     should capacities have shrunk, evicts the stalest first). No
     connection is accepted yet, so no lock is needed. *)
  (match config.store_dir with
   | None -> ()
   | Some dir ->
     let { Persist.responses; plans; warnings } = Persist.load ~dir in
     List.iter (Printf.eprintf "[serve] store: %s\n%!") warnings;
     List.iter
       (fun (key, json, cost) ->
         Cache.add ~cost t.results key json;
         t.disk_loaded_results <- t.disk_loaded_results + 1)
       (List.rev responses);
     List.iter
       (fun (key, plan, cost) ->
         Cache.add ~cost t.plans key plan;
         t.disk_loaded_plans <- t.disk_loaded_plans + 1)
       (List.rev plans);
     if config.verbose then
       Printf.eprintf "[serve] store: loaded %d responses, %d plans from %s\n%!"
         t.disk_loaded_results t.disk_loaded_plans dir);
  Wire.serve t.wire
    ~stats:(fun () -> stats_json t)
    ~on_stop:(on_stop t) (handle t);
  t

let stop t = Wire.stop t.wire

let wait t = Wire.wait t.wire
