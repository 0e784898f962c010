(* Tests for the serving subsystem: framing, the LRU caches, the request
   vocabulary and its strict decoder, content-addressed keys, checkpoint
   plan reuse, and an in-process daemon exercised end to end over a unix
   socket (byte-equality with the batch path, caching, coalescing,
   timeouts, graceful shutdown, and the load-generator acceptance run);
   the shared wire layer's error replies against both front ends. *)

module Json = Sempe_obs.Json
module Frame = Sempe_serve.Frame
module Cache = Sempe_serve.Cache
module Api = Sempe_serve.Api
module Server = Sempe_serve.Server
module Router = Sempe_serve.Router
module Wire = Sempe_serve.Wire
module Client = Sempe_serve.Client
module Loadgen = Sempe_serve.Loadgen
module Sampling = Sempe_sampling.Sampling
module Stats = Sempe_util.Stats
module Scheme = Sempe_core.Scheme

(* ---- framing ----------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payloads = [ ""; "x"; "{\"op\":\"ping\"}"; String.make 70000 'q' ] in
      List.iter (fun p -> Frame.write a p) payloads;
      List.iter
        (fun expected ->
          match Frame.read b with
          | Some got -> Alcotest.(check string) "payload survives" expected got
          | None -> Alcotest.fail "unexpected EOF")
        payloads;
      Unix.close a;
      Alcotest.(check bool) "clean EOF between frames is None" true
        (Frame.read b = None))

let test_frame_oversize () =
  with_socketpair (fun a b ->
      Frame.write a (String.make 4096 'z');
      Alcotest.check_raises "declared length above cap"
        (Frame.Frame_error "frame of 4096 bytes exceeds the 1024-byte limit")
        (fun () -> ignore (Frame.read ~max_len:1024 b)))

let test_frame_truncated () =
  (* EOF inside a frame — header promised more bytes than arrive. *)
  with_socketpair (fun a b ->
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 64l;
      ignore (Unix.write a header 0 4);
      ignore (Unix.write_substring a "only-ten.." 0 10);
      Unix.close a;
      match Frame.read b with
      | _ -> Alcotest.fail "accepted truncated frame"
      | exception Frame.Frame_error _ -> ());
  (* EOF inside the header itself. *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "\000\000" 0 2);
      Unix.close a;
      match Frame.read b with
      | _ -> Alcotest.fail "accepted truncated header"
      | exception Frame.Frame_error _ -> ())

(* ---- LRU cache --------------------------------------------------------- *)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:3 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  (* touch "a" so "b" becomes the LRU entry *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Cache.find c "a");
  Cache.add c "d" 4;
  Alcotest.(check bool) "b evicted" false (Cache.mem c "b");
  Alcotest.(check bool) "a survived (was refreshed)" true (Cache.mem c "a");
  Alcotest.(check (list string)) "recency order" [ "d"; "a"; "c" ]
    (Cache.keys_newest_first c);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
  Alcotest.(check int) "length at capacity" 3 (Cache.length c)

let test_cache_counters_and_overwrite () =
  let c = Cache.create ~capacity:2 in
  Alcotest.(check (option int)) "miss" None (Cache.find c "x");
  Cache.add c "x" 1;
  Cache.add c "y" 2;
  Cache.add c "x" 10 (* overwrite refreshes recency, evicts nothing *);
  Alcotest.(check (option int)) "overwritten value" (Some 10) (Cache.find c "x");
  Alcotest.(check (list string)) "x most recent" [ "x"; "y" ]
    (Cache.keys_newest_first c);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c);
  Alcotest.(check int) "no evictions" 0 (Cache.evictions c);
  (* mem leaves both recency and the counters alone *)
  ignore (Cache.mem c "y");
  Alcotest.(check (list string)) "mem did not refresh" [ "x"; "y" ]
    (Cache.keys_newest_first c);
  Alcotest.(check int) "mem did not count" 1 (Cache.hits c);
  Alcotest.check_raises "capacity < 1 rejected"
    (Invalid_argument "Cache.create: capacity must be >= 1") (fun () ->
      ignore (Cache.create ~capacity:0))

let test_cache_cost_aware_eviction () =
  let c = Cache.create ~capacity:3 in
  Cache.add ~cost:0.01 c "cheap-old" 1;
  Cache.add ~cost:5.0 c "costly" 2;
  Cache.add ~cost:0.01 c "cheap-new" 3;
  (* Pure LRU would evict "cheap-old" too — but here it loses on credit,
     not age: the two cheap entries tie at the minimum and the tie-break
     goes against the older one. *)
  Cache.add ~cost:0.01 c "fresh" 4;
  Alcotest.(check bool) "cheapest+oldest evicted" false (Cache.mem c "cheap-old");
  Alcotest.(check bool) "costly survives" true (Cache.mem c "costly");
  Alcotest.(check (float 1e-9)) "evicted cost accounted" 0.01
    (Cache.cost_evicted_s c);
  (* Now recency alone would protect "cheap-new" over the older "costly"
     entry; cost-aware eviction sacrifices the cheap entry instead. *)
  Cache.add ~cost:0.01 c "fresh2" 5;
  Alcotest.(check bool) "costly still resident" true (Cache.mem c "costly");
  Alcotest.(check bool) "newer-but-cheap evicted" false (Cache.mem c "cheap-new");
  (* A sustained stream of cheap one-off inserts never displaces the one
     expensive entry. *)
  for i = 0 to 9 do
    Cache.add ~cost:0.01 c (Printf.sprintf "stream-%d" i) i
  done;
  Alcotest.(check bool) "costly outlives the stream" true (Cache.mem c "costly");
  Alcotest.(check (float 1e-9)) "resident cost tracked" 5.02
    (Cache.total_cost_s c)

let test_cache_to_list () =
  let c = Cache.create ~capacity:3 in
  Cache.add ~cost:1.5 c "a" 1;
  Cache.add ~cost:0.25 c "b" 2;
  ignore (Cache.find c "a");
  Alcotest.(check bool) "to_list: newest first with costs" true
    (Cache.to_list c = [ ("a", 1, 1.5); ("b", 2, 0.25) ]);
  (* negative and NaN costs are clamped at insert *)
  Cache.add ~cost:(-3.) c "neg" 3;
  Cache.add ~cost:Float.nan c "nan" 4;
  List.iter
    (fun (k, _, cost) ->
      if k = "neg" || k = "nan" then
        Alcotest.(check (float 0.)) (k ^ " clamped to zero cost") 0. cost)
    (Cache.to_list c)

(* ---- request vocabulary ------------------------------------------------ *)

let fib w = Api.Microbench { kernel = "fibonacci"; width = w; iters = 4; leaf = 3 }

let sample_req =
  Api.Sample
    {
      scheme = Scheme.Sempe;
      workload = Api.Rsa { key = 0xACE5 };
      strict_oob = false;
      (* Coverage low enough that the sampler's cost model keeps this
         request on the genuinely sampled path (and thus exports a
         checkpoint plan) despite the small interval. *)
      params = { Api.interval = 2000; coverage = 0.05; warmup = 500 };
    }

let requests =
  [
    Api.Simulate { scheme = Scheme.Sempe; workload = fib 4; strict_oob = false };
    Api.Simulate
      {
        scheme = Scheme.Baseline;
        workload = Api.Djpeg { format = "PPM"; blocks = 2; seed = 7 };
        strict_oob = true;
      };
    sample_req;
    Api.Profile { scheme = Scheme.Cte; workload = Api.Rsa { key = 0xB0B }; top = 5 };
    Api.Leakage;
    Api.Fuzz_smoke { seed = 3; count = 10 };
  ]

let test_request_json_roundtrip () =
  List.iter
    (fun req ->
      match Api.request_of_json (Api.request_to_json req) with
      | Ok req' ->
        Alcotest.(check bool)
          (Json.to_string (Api.request_to_json req))
          true (req = req')
      | Error e -> Alcotest.fail ("round-trip rejected: " ^ e))
    requests

(* Re-encode [req] with field [k] replaced (or added) at the top level. *)
let with_field req k v =
  match Api.request_to_json req with
  | Json.Obj fields -> Json.Obj ((k, v) :: List.remove_assoc k fields)
  | _ -> Alcotest.fail "wire form is not an object"

let with_workload_field req k v =
  match Api.request_to_json req with
  | Json.Obj fields -> (
    match List.assoc_opt "workload" fields with
    | Some (Json.Obj w) ->
      Json.Obj
        (("workload", Json.Obj ((k, v) :: List.remove_assoc k w))
        :: List.remove_assoc "workload" fields)
    | _ -> Alcotest.fail "no workload object")
  | _ -> Alcotest.fail "wire form is not an object"

let rejected name doc =
  match Api.request_of_json doc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (name ^ ": malformed request accepted")

let test_request_strict_decode () =
  let simulate = List.hd requests in
  rejected "unknown op" (with_field simulate "op" (Json.Str "explode"));
  rejected "missing op"
    (match Api.request_to_json simulate with
    | Json.Obj fields -> Json.Obj (List.remove_assoc "op" fields)
    | _ -> Json.Null);
  rejected "unknown scheme" (with_field simulate "scheme" (Json.Str "tempest"));
  rejected "mistyped scheme" (with_field simulate "scheme" (Json.Int 3));
  rejected "unknown kernel"
    (with_workload_field simulate "kernel" (Json.Str "collatz"));
  rejected "width zero" (with_workload_field simulate "width" (Json.Int 0));
  (* the leaf must be one of the W+1 chain exits: the decoder names the
     field instead of letting the run fail later *)
  (match Api.request_of_json (with_workload_field simulate "leaf" (Json.Int 9)) with
   | Error msg ->
     Alcotest.(check bool) ("leaf out of range names the field: " ^ msg) true
       (String.starts_with ~prefix:"field \"leaf\"" msg)
   | Ok _ -> Alcotest.fail "leaf out of range accepted");
  rejected "unknown format"
    (with_workload_field
       (Api.Simulate
          {
            scheme = Scheme.Sempe;
            workload = Api.Djpeg { format = "PPM"; blocks = 2; seed = 1 };
            strict_oob = false;
          })
       "format" (Json.Str "WEBP"));
  rejected "coverage above 1" (with_field sample_req "coverage" (Json.Float 1.5));
  rejected "coverage zero" (with_field sample_req "coverage" (Json.Float 0.));
  rejected "interval zero" (with_field sample_req "interval" (Json.Int 0));
  rejected "not an object" (Json.List [ Json.Int 1 ]);
  (* unknown extra fields are forward-compatible noise, not errors *)
  match Api.request_of_json (with_field simulate "future_flag" (Json.Bool true)) with
  | Ok req -> Alcotest.(check bool) "extra field ignored" true (req = simulate)
  | Error e -> Alcotest.fail ("extra field rejected: " ^ e)

let test_cache_keys () =
  let keys = List.map Api.cache_key requests in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check int) "distinct requests have distinct keys"
    (List.length keys) (List.length distinct);
  Alcotest.(check bool) "key is deterministic" true
    (Api.cache_key sample_req = Api.cache_key sample_req);
  (* workload-bearing keys carry program digests on top of the json ones *)
  Alcotest.(check int) "workload key width" 4
    (List.length (Api.cache_key (List.hd requests)));
  Alcotest.(check int) "leakage key width" 2
    (List.length (Api.cache_key Api.Leakage));
  Alcotest.(check bool) "scheme changes the key" false
    (Api.cache_key
       (Api.Simulate
          { scheme = Scheme.Sempe; workload = fib 4; strict_oob = false })
    = Api.cache_key
        (Api.Simulate
           { scheme = Scheme.Cte; workload = fib 4; strict_oob = false }))

let test_plan_keys () =
  Alcotest.(check bool) "simulate has no plan key" true
    (Api.plan_key (List.hd requests) = None);
  Alcotest.(check bool) "leakage has no plan key" true
    (Api.plan_key Api.Leakage = None);
  let sample ~coverage ~interval =
    Api.Sample
      {
        scheme = Scheme.Sempe;
        workload = Api.Rsa { key = 0xACE5 };
        strict_oob = false;
        params = { Api.interval; coverage; warmup = 500 };
      }
  in
  let k1 = Api.plan_key (sample ~coverage:0.25 ~interval:2000) in
  Alcotest.(check bool) "sample has a plan key" true (k1 <> None);
  (* the plan depends on the stride, not the raw coverage: 0.25 and 0.26
     both round to stride 4, so they share a checkpoint plan *)
  Alcotest.(check bool) "equivalent coverage shares the plan" true
    (k1 = Api.plan_key (sample ~coverage:0.26 ~interval:2000));
  Alcotest.(check bool) "different stride, different plan" false
    (k1 = Api.plan_key (sample ~coverage:0.5 ~interval:2000));
  Alcotest.(check bool) "different interval, different plan" false
    (k1 = Api.plan_key (sample ~coverage:0.25 ~interval:1000))

(* ---- checkpoint plan reuse --------------------------------------------- *)

let test_plan_reuse_byte_equal () =
  let captured = ref None in
  let cold = Api.perform ~plan_out:(fun p -> captured := Some p) sample_req in
  match !captured with
  | None -> Alcotest.fail "fast-forward pass exported no plan"
  | Some plan ->
    let warm = Api.perform ~plan sample_req in
    Alcotest.(check string) "warm sample byte-identical to cold"
      (Json.to_string cold) (Json.to_string warm)

let test_plan_image_roundtrip () =
  let captured = ref None in
  let cold = Api.perform ~plan_out:(fun p -> captured := Some p) sample_req in
  match !captured with
  | None -> Alcotest.fail "fast-forward pass exported no plan"
  | Some plan ->
    let image = Sampling.plan_to_bytes plan in
    (match Sampling.plan_of_bytes image with
     | Error e -> Alcotest.fail ("image rejected: " ^ e)
     | Ok revived ->
       Alcotest.(check int) "points survive" (Sampling.plan_points plan)
         (Sampling.plan_points revived);
       Alcotest.(check int) "instruction count survives"
         (Sampling.plan_instructions plan)
         (Sampling.plan_instructions revived);
       let warm = Api.perform ~plan:revived sample_req in
       Alcotest.(check string) "estimate from a revived image byte-identical"
         (Json.to_string cold) (Json.to_string warm));
    (* stale or damaged images are Error, never an exception *)
    (match Sampling.plan_of_bytes "not-a-plan" with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "accepted garbage image");
    (match Sampling.plan_of_bytes (String.sub image 0 (String.length image - 5)) with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "accepted truncated image");
    match Sampling.plan_of_bytes ("sempe-plan.v0\n" ^ "rest") with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "accepted wrong version"

(* ---- loadgen percentile gating ----------------------------------------- *)

let test_loadgen_p99_floor () =
  let s = Stats.Summary.create () in
  for i = 1 to Loadgen.p99_floor - 1 do
    Stats.Summary.observe s (float_of_int i)
  done;
  (* below the floor, nearest-rank p99 would just be the max *)
  Alcotest.(check bool) "p99 withheld under the floor" true
    (Loadgen.gated_p99 s = None);
  Stats.Summary.observe s (float_of_int Loadgen.p99_floor);
  (match Loadgen.gated_p99 s with
   | None -> Alcotest.fail "p99 withheld at the floor"
   | Some p ->
     Alcotest.(check (float 1e-9)) "nearest-rank p99 at the floor" 99. p);
  for i = Loadgen.p99_floor + 1 to 1000 do
    Stats.Summary.observe s (float_of_int i)
  done;
  match Loadgen.gated_p99 s with
  | None -> Alcotest.fail "p99 withheld on a large sample"
  | Some p ->
    Alcotest.(check bool) "p99 below max on a large sample" true (p < 1000.)

(* ---- in-process daemon ------------------------------------------------- *)

let sock_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "sempe-t%d-%s.sock" (Unix.getpid ()) name)

let with_server ?(config = Server.default_config) name f =
  let path = sock_path name in
  if Sys.file_exists path then Sys.remove path;
  let server = Server.start ~config (Server.Unix_sock path) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f server (Server.Unix_sock path))

let with_conn addr f =
  let conn = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> f conn)

let ok = function
  | Ok v -> v
  | Error { Client.code; message } ->
    Alcotest.fail (Printf.sprintf "daemon error %s: %s" code message)

let stat path json =
  let rec go json = function
    | [] -> ( match json with Json.Int i -> i | _ -> -1)
    | name :: rest -> (
      match json with
      | Json.Obj fields -> (
        match List.assoc_opt name fields with Some v -> go v rest | None -> -1)
      | _ -> -1)
  in
  go json path

let test_server_byte_equality_and_caching () =
  with_server "bytes" (fun _server addr ->
      with_conn addr (fun conn ->
          ok (Client.ping conn);
          let req =
            Api.Simulate
              { scheme = Scheme.Sempe; workload = fib 4; strict_oob = false }
          in
          let served, cached1 = ok (Client.call_cached conn req) in
          Alcotest.(check bool) "first answer is not cached" false cached1;
          Alcotest.(check string) "served = batch CLI bytes"
            (Json.to_string (Api.perform req))
            (Json.to_string served);
          let again, cached2 = ok (Client.call_cached conn req) in
          Alcotest.(check bool) "second answer is cached" true cached2;
          Alcotest.(check string) "cache serves identical bytes"
            (Json.to_string served) (Json.to_string again);
          let stats = ok (Client.stats conn) in
          Alcotest.(check int) "executed once" 1 (stat [ "executed" ] stats);
          Alcotest.(check int) "one result-cache hit" 1
            (stat [ "result_cache"; "hits" ] stats)))

let test_server_sample_plan_cache () =
  (* A result cache of one entry forces re-execution of the sample after
     an unrelated request evicts it; the checkpoint plan survives in the
     plan cache and the warm re-execution must serve identical bytes. *)
  let config = { Server.default_config with result_entries = 1 } in
  with_server ~config "plan" (fun _server addr ->
      with_conn addr (fun conn ->
          let cold = ok (Client.call conn sample_req) in
          let evictor =
            Api.Simulate
              { scheme = Scheme.Baseline; workload = fib 2; strict_oob = false }
          in
          ignore (ok (Client.call conn evictor));
          let warm, cached = ok (Client.call_cached conn sample_req) in
          Alcotest.(check bool) "re-executed, not cache-served" false cached;
          Alcotest.(check string) "plan-warmed rerun byte-identical"
            (Json.to_string cold) (Json.to_string warm);
          let stats = ok (Client.stats conn) in
          Alcotest.(check bool) "plan cache was hit" true
            (stat [ "plan_cache"; "hits" ] stats >= 1);
          Alcotest.(check int) "three executions total" 3
            (stat [ "executed" ] stats)))

let test_server_timeout_then_alive () =
  let config = { Server.default_config with timeout_s = 1e-6 } in
  with_server ~config "timeout" (fun _server addr ->
      with_conn addr (fun conn ->
          (match Client.call conn Api.Leakage with
          | Ok _ -> Alcotest.fail "microsecond deadline cannot be met"
          | Error { code; _ } ->
            Alcotest.(check string) "structured timeout error" "timeout" code);
          (* the daemon must survive a timed-out request *)
          ok (Client.ping conn)))

let test_server_rejects_garbage_frames () =
  with_server "garbage" (fun _server addr ->
      with_conn addr (fun conn -> ok (Client.ping conn));
      (* raw socket: send a syntactically broken document, then a valid
         but meaningless one; both get structured errors, not a hangup *)
      let path = match addr with Server.Unix_sock p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          Frame.write fd "{\"op\": ";
          (match Frame.read fd with
          | Some reply ->
            let doc = Json.of_string reply in
            Alcotest.(check bool) "ok:false on bad json" true
              (Json.member "ok" doc = Some (Json.Bool false))
          | None -> Alcotest.fail "daemon hung up on bad json");
          Frame.write fd "{\"op\": \"simulate\"}";
          match Frame.read fd with
          | Some reply ->
            let doc = Json.of_string reply in
            Alcotest.(check bool) "ok:false on bad request" true
              (Json.member "ok" doc = Some (Json.Bool false))
          | None -> Alcotest.fail "daemon hung up on bad request"))

(* One frame of raw bytes out on a fresh connection, the reply's error
   code back. *)
let raw_error_code addr bytes =
  let fd = Wire.connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Unix.write_substring fd bytes 0 (String.length bytes));
      match Frame.read fd with
      | None -> Alcotest.fail "hung up without a reply"
      | Some reply -> (
        let doc = Json.of_string reply in
        Alcotest.(check bool) "ok:false" true
          (Json.member "ok" doc = Some (Json.Bool false));
        match Option.bind (Json.member "error" doc) (Json.member "code") with
        | Some (Json.Str code) -> code
        | _ -> Alcotest.fail ("reply without an error code: " ^ reply)))

let framed payload =
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (String.length payload));
  Bytes.to_string header ^ payload

(* The same malformed inputs against any front end: each gets its error
   code and is counted in the [stats] op's [errors]. *)
let check_wire_errors front addr =
  let oversized =
    let header = Bytes.create 4 in
    Bytes.set_int32_be header 0 (Int32.of_int (Frame.max_len_default + 1));
    Bytes.to_string header
  in
  List.iter
    (fun (what, bytes, code) ->
      Alcotest.(check string) (front ^ ": " ^ what) code
        (raw_error_code addr bytes))
    [
      ("oversized frame header", oversized, "bad-frame");
      ("truncated JSON", framed "{\"op\": ", "bad-json");
      ("not an object", framed "[1]", "bad-request");
      ("unknown op", framed "{\"op\":\"explode\"}", "bad-request");
    ];
  with_conn addr (fun conn ->
      Alcotest.(check int) (front ^ ": errors counted") 4
        (stat [ "errors" ] (ok (Client.stats conn))))

let test_wire_errors_both_front_ends () =
  with_server "wire-daemon" (fun _server addr -> check_wire_errors "daemon" addr);
  with_server "wire-shard" (fun _server shard ->
      let path = sock_path "wire-router" in
      let router = Router.start ~shards:[ shard ] (Server.Unix_sock path) in
      Fun.protect
        ~finally:(fun () -> Router.stop router)
        (fun () -> check_wire_errors "router" (Server.Unix_sock path)))

let test_wire_busy () =
  let config = { Server.default_config with max_connections = 1 } in
  with_server ~config "busy" (fun _server addr ->
      with_conn addr (fun conn ->
          ok (Client.ping conn);
          Alcotest.(check string) "second connection turned away" "busy"
            (raw_error_code addr "");
          let stats = ok (Client.stats conn) in
          Alcotest.(check int) "one rejected" 1
            (stat [ "connections"; "rejected" ] stats);
          Alcotest.(check int) "busy is not a request error" 0
            (stat [ "errors" ] stats)))

let test_server_coalesces_duplicates () =
  (* Fire the same request from many threads at once: every reply carries
     identical bytes and the daemon executes the simulation fewer times
     than it replied (duplicates joined an in-flight execution or hit the
     cache). *)
  let config = { Server.default_config with workers = 2 } in
  with_server ~config "coalesce" (fun _server addr ->
      let req =
        Api.Simulate
          { scheme = Scheme.Sempe; workload = fib 6; strict_oob = false }
      in
      let n = 6 in
      let replies = Array.make n None in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                with_conn addr (fun conn ->
                    replies.(i) <- Some (ok (Client.call conn req))))
              ())
      in
      List.iter Thread.join threads;
      let rendered =
        Array.to_list replies
        |> List.map (function
             | Some r -> Json.to_string r
             | None -> Alcotest.fail "missing reply")
      in
      List.iter
        (Alcotest.(check string) "all replies identical" (List.hd rendered))
        rendered;
      with_conn addr (fun conn ->
          let stats = ok (Client.stats conn) in
          let executed = stat [ "executed" ] stats in
          Alcotest.(check bool) "executed fewer times than replied" true
            (executed < n);
          Alcotest.(check int) "every duplicate was absorbed" n
            (executed
            + stat [ "coalesced" ] stats
            + stat [ "result_cache"; "hits" ] stats)))

let test_server_client_shutdown_op () =
  let path = sock_path "shutop" in
  if Sys.file_exists path then Sys.remove path;
  let server = Server.start (Server.Unix_sock path) in
  with_conn (Server.Unix_sock path) (fun conn -> ok (Client.shutdown conn));
  (* the shutdown op must unblock wait and leave a clean exit *)
  Server.wait server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* ---- acceptance: loadgen against a live daemon ------------------------- *)

let test_acceptance_loadgen () =
  let config = { Server.default_config with workers = 2 } in
  with_server ~config "accept" (fun _server addr ->
      let mix =
        [
          Api.Simulate
            { scheme = Scheme.Sempe; workload = fib 4; strict_oob = false };
          Api.Simulate
            { scheme = Scheme.Baseline; workload = fib 4; strict_oob = false };
          Api.Simulate
            {
              scheme = Scheme.Sempe;
              workload = Api.Djpeg { format = "PPM"; blocks = 2; seed = 7 };
              strict_oob = false;
            };
          sample_req;
        ]
      in
      (* p50 of the distinct sweep on one connection, cold (first ever
         execution of each request) then warm after the loadgen has
         populated the caches. A concurrent loadgen p50 would mix cache
         hits into the cold number — with 4 distinct requests behind 48
         calls, 44 of the "cold" run's requests are already hits. *)
      let sweep_p50 conn =
        let lat =
          List.map
            (fun req ->
              let t0 = Unix.gettimeofday () in
              ignore (ok (Client.call conn req));
              Unix.gettimeofday () -. t0)
            mix
          |> List.sort compare |> Array.of_list
        in
        lat.(Array.length lat / 2)
      in
      let cold_p50 = with_conn addr sweep_p50 in
      let cfg =
        { Loadgen.clients = 8; requests_per_client = 6; mix; rate_hz = None }
      in
      let out = Loadgen.run addr cfg in
      Alcotest.(check int) "no dropped requests" 0 out.Loadgen.dropped;
      Alcotest.(check int) "no error replies" 0 out.Loadgen.errors;
      Alcotest.(check int) "every request answered" out.Loadgen.sent
        out.Loadgen.completed;
      Alcotest.(check bool) "loadgen over warm caches hits near-always" true
        (out.Loadgen.hit_rate > 0.9);
      let warm_p50 = with_conn addr sweep_p50 in
      Alcotest.(check bool)
        (Printf.sprintf "warm p50 at least 5x faster (cold %.4fs, warm %.4fs)"
           cold_p50 warm_p50)
        true
        (warm_p50 *. 5. <= cold_p50))

let tests =
  [
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame oversize rejected" `Quick test_frame_oversize;
    Alcotest.test_case "frame truncation rejected" `Quick test_frame_truncated;
    Alcotest.test_case "cache LRU eviction order" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache counters and overwrite" `Quick
      test_cache_counters_and_overwrite;
    Alcotest.test_case "cache cost-aware eviction" `Quick
      test_cache_cost_aware_eviction;
    Alcotest.test_case "cache dump with costs" `Quick test_cache_to_list;
    Alcotest.test_case "loadgen p99 floor" `Quick test_loadgen_p99_floor;
    Alcotest.test_case "request json round-trip" `Quick
      test_request_json_roundtrip;
    Alcotest.test_case "request strict decode" `Quick test_request_strict_decode;
    Alcotest.test_case "cache keys" `Quick test_cache_keys;
    Alcotest.test_case "plan keys" `Quick test_plan_keys;
    Alcotest.test_case "checkpoint plan reuse byte-equal" `Quick
      test_plan_reuse_byte_equal;
    Alcotest.test_case "checkpoint plan disk image round-trip" `Quick
      test_plan_image_roundtrip;
    Alcotest.test_case "daemon: byte equality and caching" `Quick
      test_server_byte_equality_and_caching;
    Alcotest.test_case "daemon: plan cache across eviction" `Quick
      test_server_sample_plan_cache;
    Alcotest.test_case "daemon: timeout leaves daemon alive" `Quick
      test_server_timeout_then_alive;
    Alcotest.test_case "daemon: malformed frames get errors" `Quick
      test_server_rejects_garbage_frames;
    Alcotest.test_case "wire: error replies from daemon and router" `Quick
      test_wire_errors_both_front_ends;
    Alcotest.test_case "wire: connection limit answers busy" `Quick
      test_wire_busy;
    Alcotest.test_case "daemon: duplicate requests coalesce" `Quick
      test_server_coalesces_duplicates;
    Alcotest.test_case "daemon: client shutdown op" `Quick
      test_server_client_shutdown_op;
    Alcotest.test_case "acceptance: loadgen cold vs warm" `Slow
      test_acceptance_loadgen;
  ]
