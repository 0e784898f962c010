(* The fleet front end: accepts the same framed JSON protocol as a
   shard, consistent-hashes each request's partition key onto one of N
   shards, and relays the original frame bytes verbatim — so the reply a
   client sees is exactly the bytes the shard produced (the shard echoes
   the client's own "id", because the shard reads the client's own
   payload). The router never parses a shard's reply.

   Shard failure is handled at the forwarding layer: each attempt gets a
   fresh connection; a refusal, hangup or frame error is retried with
   doubling backoff, and a shard that exhausts its retries is marked
   dead and skipped in favor of the next shard clockwise on the ring.
   A background health thread pings dead shards back to life. *)

module Json = Sempe_obs.Json
module Pool = Sempe_util.Pool

(* ---- the hash ring ---- *)

module Ring = struct
  (* [points] is sorted by hash; each shard contributes [replicas]
     virtual nodes so the keyspace splits evenly and removing one shard
     redistributes only that shard's arcs (~1/N of the keys) instead of
     shifting every assignment by one. *)
  type t = { shards : int; points : (int * int) array }

  let default_replicas = 128

  (* Fold the dual digests into one ring coordinate. *)
  let mix (h1, h2) = (h1 lxor (h2 * 0x9e3779b1)) land max_int

  let create ?(replicas = default_replicas) shards =
    if shards < 1 then invalid_arg "Ring.create: shards must be >= 1";
    if replicas < 1 then invalid_arg "Ring.create: replicas must be >= 1";
    let points =
      Array.init (shards * replicas) (fun i ->
          let shard = i / replicas and v = i mod replicas in
          (mix (Api.digests (Printf.sprintf "shard-%d#%d" shard v)), shard))
    in
    Array.sort compare points;
    { shards; points }

  let shards t = t.shards

  let key_hash key =
    mix (Api.digests (String.concat "," (List.map string_of_int key)))

  (* Index of the first point strictly clockwise of [h], wrapping. *)
  let successor t h =
    let n = Array.length t.points in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst t.points.(mid) <= h then go (mid + 1) hi else go lo mid
    in
    let i = go 0 n in
    if i = n then 0 else i

  let assign t key = snd t.points.(successor t (key_hash key))

  let order t key =
    let n = Array.length t.points in
    let start = successor t (key_hash key) in
    let seen = Array.make t.shards false in
    let out = ref [] and found = ref 0 in
    let i = ref 0 in
    while !found < t.shards && !i < n do
      let shard = snd t.points.((start + !i) mod n) in
      if not seen.(shard) then begin
        seen.(shard) <- true;
        out := shard :: !out;
        incr found
      end;
      incr i
    done;
    List.rev !out
end

(* ---- configuration ---- *)

type config = {
  replicas : int;
  retries : int;
  backoff_s : float;
  health_period_s : float;
  verbose : bool;
}

let default_config =
  {
    replicas = Ring.default_replicas;
    retries = 2;
    backoff_s = 0.05;
    health_period_s = 0.5;
    verbose = false;
  }

type shard = {
  s_addr : Wire.addr;
  mutable s_alive : bool;
  mutable s_forwarded : int;
}

type t = {
  cfg : config;
  wire : Wire.t;
  ring : Ring.t;
  shards : shard array;
  m : Mutex.t;
  mutable forwarded : int;
  mutable retried : int;
  mutable failovers : int;
}

let addr t = Wire.addr t.wire

let request_stop t = Wire.request_stop t.wire

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let op_doc name = Json.to_string (Json.Obj [ ("op", Json.Str name) ])

(* ---- forwarding ---- *)

let forward t key payload =
  let ring_order = Ring.order t.ring key in
  (* Prefer live shards, in ring order; fall back to trying the dead
     ones anyway (the health thread may simply not have noticed a
     revival yet, and a request should not fail while any shard can
     serve it). *)
  let alive, dead =
    List.partition (fun i -> locked t (fun () -> t.shards.(i).s_alive)) ring_order
  in
  let rec try_shards ~first = function
    | [] -> Wire.Error_reply ("unavailable", "no shard could serve the request")
    | idx :: rest ->
      let shard = t.shards.(idx) in
      if not first then locked t (fun () -> t.failovers <- t.failovers + 1);
      (* Each attempt is a fresh connection carrying the client's own
         payload bytes; the shard's reply bytes come back untouched. *)
      let rec attempt n backoff =
        match Wire.exchange shard.s_addr payload with
        | Ok reply ->
          locked t (fun () ->
              shard.s_alive <- true;
              shard.s_forwarded <- shard.s_forwarded + 1;
              t.forwarded <- t.forwarded + 1);
          Ok reply
        | Error _ when n < t.cfg.retries ->
          locked t (fun () -> t.retried <- t.retried + 1);
          Thread.delay backoff;
          attempt (n + 1) (backoff *. 2.)
        | Error msg ->
          locked t (fun () -> shard.s_alive <- false);
          if t.cfg.verbose then
            Printf.eprintf "[router] shard %s down: %s\n%!"
              (Wire.addr_to_string shard.s_addr)
              msg;
          Error msg
      in
      (match attempt 1 t.cfg.backoff_s with
       | Ok reply -> Wire.Relay reply
       | Error _ -> try_shards ~first:false rest)
  in
  try_shards ~first:true (alive @ dead)

let handle t req payload =
  let key = Api.route_key req in
  let r = forward t key payload in
  (match r with
   | Wire.Relay _ when t.cfg.verbose ->
     Printf.eprintf "[router] %s -> shard %d\n%!"
       (Json.to_string (Api.request_to_json req))
       (Ring.assign t.ring key)
   | _ -> ());
  r

(* ---- fleet control ---- *)

let drain_fleet t =
  Array.iter
    (fun shard -> ignore (Wire.exchange shard.s_addr (op_doc "shutdown")))
    t.shards

(* ---- stats ---- *)

let shard_cache_counts shard =
  let ( let* ) = Option.bind in
  let* reply = Result.to_option (Wire.exchange shard.s_addr (op_doc "stats")) in
  let* doc =
    try Some (Json.of_string_strict reply) with Json.Parse_error _ -> None
  in
  let* rc = Option.bind (Json.member "result" doc) (Json.member "result_cache") in
  match (Json.member "hits" rc, Json.member "misses" rc) with
  | Some (Json.Int h), Some (Json.Int m) -> Some (h, m)
  | _ -> None

let stats_json t =
  (* Sum the fleet's result-cache counters so a load generator pointed
     at the router reads hit rates exactly as it would against a single
     shard. Queried live; a dead shard contributes nothing. *)
  let hits = ref 0 and misses = ref 0 in
  Array.iter
    (fun shard ->
      if locked t (fun () -> shard.s_alive) then
        match shard_cache_counts shard with
        | Some (h, m) ->
          hits := !hits + h;
          misses := !misses + m
        | None -> ())
    t.shards;
  let w = Wire.stats_fields t.wire in
  let wire key = (key, List.assoc key w) in
  locked t (fun () ->
      Json.Obj
        [
          ("role", Json.Str "router");
          wire "requests";
          ("forwarded", Json.Int t.forwarded);
          ("retried", Json.Int t.retried);
          ("failovers", Json.Int t.failovers);
          wire "errors";
          ( "shards",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun s ->
                      Json.Obj
                        [
                          ("addr", Json.Str (Wire.addr_to_string s.s_addr));
                          ("alive", Json.Bool s.s_alive);
                          ("forwarded", Json.Int s.s_forwarded);
                        ])
                    t.shards)) );
          ( "result_cache",
            Json.Obj [ ("hits", Json.Int !hits); ("misses", Json.Int !misses) ] );
          wire "connections";
        ])

(* Revive dead shards: a cheap ping on a fresh connection. Live shards
   are left alone — forwarding itself discovers failures faster than a
   poll would. *)
let health_loop (t, stopping) =
  while not (Atomic.get stopping) do
    Array.iter
      (fun shard ->
        if not (locked t (fun () -> shard.s_alive)) then
          match Wire.exchange shard.s_addr (op_doc "ping") with
          | Ok _ ->
            locked t (fun () -> shard.s_alive <- true);
            if t.cfg.verbose then
              Printf.eprintf "[router] shard %s back up\n%!"
                (Wire.addr_to_string shard.s_addr)
          | Error _ -> ())
      t.shards;
    (* Sleep in short slices so a stop is honored promptly. *)
    let deadline = Pool.now_s () +. t.cfg.health_period_s in
    while (not (Atomic.get stopping)) && Pool.now_s () < deadline do
      Thread.delay 0.02
    done
  done

(* ---- lifecycle ---- *)

let start ?(config = default_config) ~shards address =
  if shards = [] then invalid_arg "Router.start: no shards";
  let wire =
    Wire.listen ~max_connections:Server.default_config.max_connections address
  in
  let t =
    {
      cfg = config;
      wire;
      ring = Ring.create ~replicas:config.replicas (List.length shards);
      shards =
        Array.of_list
          (List.map
             (fun a -> { s_addr = a; s_alive = true; s_forwarded = 0 })
             shards);
      m = Mutex.create ();
      forwarded = 0;
      retried = 0;
      failovers = 0;
    }
  in
  let stopping = Atomic.make false in
  let health = Thread.create health_loop (t, stopping) in
  Wire.serve wire
    ~stats:(fun () -> stats_json t)
    (* Graceful fleet drain: every shard finishes its in-flight work,
       flushes its store and exits; then the router follows. *)
    ~on_shutdown:(fun () -> drain_fleet t)
    ~on_stop:(fun () ->
      Atomic.set stopping true;
      Thread.join health)
    (handle t);
  t

let stop t = Wire.stop t.wire

let wait t = Wire.wait t.wire
