module Json = Sempe_obs.Json
module Stats = Sempe_util.Stats
module Pool = Sempe_util.Pool

(* ---- addresses and sockets ---- *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  let after p =
    let n = String.length p in
    if String.length s > n && String.starts_with ~prefix:p s then
      Some (String.sub s n (String.length s - n))
    else None
  in
  match (after "unix:", after "tcp:") with
  | Some path, _ -> Ok (Unix_sock path)
  | None, Some rest -> (
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "tcp address %S needs HOST:PORT" rest)
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad tcp port %S" port)))
  | None, None -> if s = "" then Error "empty address" else Ok (Unix_sock s)

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* A host that does not resolve is reported like any other socket
   failure, so callers handle one exception. *)
let sockaddr = function
  | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found ->
          raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))
    in
    (Unix.PF_INET, Unix.ADDR_INET (inet, port))

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ()

let bind ~backlog address =
  let domain, sa = sockaddr address in
  (match address with
   | Unix_sock path -> if Sys.file_exists path then Sys.remove path
   | Tcp _ -> ());
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd sa;
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

let connect address =
  ignore_sigpipe ();
  let domain, sa = sockaddr address in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

let exchange address payload =
  match connect address with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "connect: %s" (Unix.error_message e))
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        match
          Frame.write fd payload;
          Frame.read fd
        with
        | Some reply -> Ok reply
        | None -> Error "peer closed the connection"
        | exception Frame.Frame_error msg -> Error msg
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

(* ---- the listener ---- *)

type reply =
  | Ok_reply of Json.t * bool
  | Error_reply of string * string
  | Relay of string

type t = {
  address : addr;
  listen_fd : Unix.file_descr;
  max_connections : int;
  m : Mutex.t;
  latency : Stats.Summary.t;
  mutable on_stop : unit -> unit;
  mutable requests : int;
  mutable ok : int;
  mutable errors : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable active : int;
  mutable in_flight : int;
  mutable max_in_flight : int;
  mutable conns : (int * Unix.file_descr) list;
  mutable next_conn : int;
  stop_flag : bool Atomic.t;
  stop_done : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable handler_threads : Thread.t list;
}

let addr t = t.address

let request_stop t = Atomic.set t.stop_flag true

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let stats_fields t =
  locked t (fun () ->
      let pct q = Stats.Summary.percentile q t.latency in
      [
        ("requests", Json.Int t.requests);
        ("ok", Json.Int t.ok);
        ("errors", Json.Int t.errors);
        ( "connections",
          Json.Obj
            [
              ("accepted", Json.Int t.accepted);
              ("rejected", Json.Int t.rejected);
              ("active", Json.Int t.active);
            ] );
        ("in_flight", Json.Int t.in_flight);
        ("max_in_flight", Json.Int t.max_in_flight);
        ( "latency_s",
          Json.Obj
            [
              ("count", Json.Int (Stats.Summary.count t.latency));
              ("mean", Json.Float (Stats.Summary.mean t.latency));
              ("p50", Json.Float (pct 0.5));
              ("p95", Json.Float (pct 0.95));
              ("p99", Json.Float (pct 0.99));
              ("max", Json.Float (Stats.Summary.max t.latency));
            ] );
      ])

(* The reply envelope: the one place a reply document is built. *)
let envelope ~id r =
  let doc body =
    let id = Option.to_list (Option.map (fun i -> ("id", Json.Int i)) id) in
    Json.to_string (Json.Obj (id @ body))
  in
  match r with
  | Relay bytes -> bytes
  | Ok_reply (result, cached) ->
    let cached = Json.Bool cached in
    doc [ ("ok", Json.Bool true); ("cached", cached); ("result", result) ]
  | Error_reply (code, message) ->
    let error = [ ("code", Json.Str code); ("message", Json.Str message) ] in
    doc [ ("ok", Json.Bool false); ("error", Json.Obj error) ]

let busy_doc =
  envelope ~id:None (Error_reply ("busy", "connection limit reached"))

(* Counted before the write, so a peer that has read a reply finds it
   in the next [stats]. *)
let reply t fd ~id ~t0 r =
  let doc = envelope ~id r in
  locked t (fun () ->
      Stats.Summary.observe t.latency (Pool.now_s () -. t0);
      match r with
      | Error_reply _ -> t.errors <- t.errors + 1
      | Ok_reply _ | Relay _ -> t.ok <- t.ok + 1);
  Frame.write fd doc

(* Decode one request and answer it: the control ops here, a workload
   request through [handle]. Returns the id to echo with the reply. *)
let dispatch t ~stats ~on_shutdown handle payload =
  match Json.of_string_strict payload with
  | exception Json.Parse_error { pos; message } ->
    let msg = Printf.sprintf "at byte %d: %s" pos message in
    (None, Error_reply ("bad-json", msg))
  | Json.Obj fields as json -> (
    let id =
      match List.assoc_opt "id" fields with
      | Some (Json.Int i) -> Some i
      | _ -> None
    in
    match List.assoc_opt "op" fields with
    | Some (Json.Str "ping") -> (id, Ok_reply (Json.Str "pong", false))
    | Some (Json.Str "stats") -> (id, Ok_reply (stats (), false))
    | Some (Json.Str "shutdown") ->
      on_shutdown ();
      request_stop t;
      (id, Ok_reply (Json.Bool true, false))
    | _ -> (
      match Api.request_of_json json with
      | Error msg -> (id, Error_reply ("bad-request", msg))
      | Ok req -> (id, handle req payload)))
  | _ -> (None, Error_reply ("bad-request", "request must be a JSON object"))

let handle_payload dispatch t fd payload =
  let t0 = Pool.now_s () in
  locked t (fun () ->
      t.requests <- t.requests + 1;
      t.in_flight <- t.in_flight + 1;
      if t.in_flight > t.max_in_flight then t.max_in_flight <- t.in_flight);
  Fun.protect
    ~finally:(fun () -> locked t (fun () -> t.in_flight <- t.in_flight - 1))
    (fun () ->
      let id, r = dispatch payload in
      reply t fd ~id ~t0 r)

let conn_loop dispatch t fd =
  let rec go () =
    match Frame.read fd with
    | None -> ()
    | Some payload ->
      handle_payload dispatch t fd payload;
      go ()
    | exception Frame.Frame_error msg ->
      (* Tell the peer why before hanging up; a half-read stream cannot
         be resynchronized. *)
      let r = Error_reply ("bad-frame", msg) in
      (try reply t fd ~id:None ~t0:(Pool.now_s ()) r with _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  try go () with _ -> ()

let handler dispatch t cid fd =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with _ -> ());
      locked t (fun () ->
          t.active <- t.active - 1;
          t.conns <- List.filter (fun (c, _) -> c <> cid) t.conns))
    (fun () -> conn_loop dispatch t fd)

let accept_loop (dispatch, t) =
  while not (Atomic.get t.stop_flag) do
    let ready =
      try
        match Unix.select [ t.listen_fd ] [] [] 0.2 with
        | [], _, _ -> false
        | _ -> true
      with Unix.Unix_error _ -> false
    in
    if ready && not (Atomic.get t.stop_flag) then begin
      match Unix.accept t.listen_fd with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        let admitted =
          locked t (fun () ->
              if t.active >= t.max_connections then begin
                t.rejected <- t.rejected + 1;
                false
              end
              else begin
                t.accepted <- t.accepted + 1;
                t.active <- t.active + 1;
                let cid = t.next_conn in
                t.next_conn <- cid + 1;
                t.conns <- (cid, fd) :: t.conns;
                let th = Thread.create (handler dispatch t cid) fd in
                t.handler_threads <- th :: t.handler_threads;
                true
              end)
        in
        if not admitted then begin
          (try Frame.write fd busy_doc with _ -> ());
          try Unix.close fd with _ -> ()
        end
    end
  done

(* ---- lifecycle ---- *)

let listen ~max_connections address =
  ignore_sigpipe ();
  {
    address;
    listen_fd = bind ~backlog:(max 16 max_connections) address;
    max_connections;
    m = Mutex.create ();
    latency = Stats.Summary.create ();
    on_stop = ignore;
    requests = 0;
    ok = 0;
    errors = 0;
    accepted = 0;
    rejected = 0;
    active = 0;
    in_flight = 0;
    max_in_flight = 0;
    conns = [];
    next_conn = 0;
    stop_flag = Atomic.make false;
    stop_done = Atomic.make false;
    accept_thread = None;
    handler_threads = [];
  }

let serve t ~stats ?(on_shutdown = ignore) ?(on_stop = ignore) handle =
  t.on_stop <- on_stop;
  let dispatch = dispatch t ~stats ~on_shutdown handle in
  t.accept_thread <- Some (Thread.create accept_loop (dispatch, t))

(* How long {!stop} lets in-flight requests finish before hanging up. *)
let drain_grace_s = 600.

let stop t =
  if not (Atomic.exchange t.stop_done true) then begin
    Atomic.set t.stop_flag true;
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (match t.address with
     | Unix_sock path -> ( try Sys.remove path with _ -> ())
     | Tcp _ -> ());
    let grace = Pool.now_s () +. drain_grace_s in
    while locked t (fun () -> t.in_flight) > 0 && Pool.now_s () < grace do
      Thread.delay 0.005
    done;
    (* Wake connections idle in [Frame.read] so their handlers exit. *)
    List.iter
      (fun (_, fd) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
      (locked t (fun () -> t.conns));
    List.iter Thread.join (locked t (fun () -> t.handler_threads));
    t.on_stop ()
  end

let wait t =
  while not (Atomic.get t.stop_flag) do
    Thread.delay 0.05
  done;
  stop t
