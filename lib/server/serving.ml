(* The serving core (see serving.mli for the contract): one accept loop,
   admission queue, worker pool, maintenance ticker and drain, shared by
   the daemon and the router.

   Signal handlers must not take locks (the main thread may hold them),
   so [request_shutdown] only flips an atomic; the accept loop notices
   within one select tick. *)

let src = Logs.Src.create "galatex.serving" ~doc:"GalaTex serving core"

module Log = (val Logs.src_log src : Logs.LOG)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let refuse path fmt =
  Printf.ksprintf
    (fun why ->
      Xquery.Errors.raise_error Xquery.Errors.FODC0002 "cannot serve on %s: %s"
        path why)
    fmt

(* Clear [path] for a bind, or refuse: only a stale socket — one nobody
   listens on any more (ECONNREFUSED), the kill -9 restart case — is
   ours to remove. *)
let claim path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> refuse path "%s" (Unix.error_message e)
  | Unix.S_SOCK -> (
      let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (* non-blocking: a live listener with a full backlog must not hang
         the probe (it answers EAGAIN, which counts as live) *)
      Unix.set_nonblock probe;
      let stale =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> Error "a live listener answers there"
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> Ok ()
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      in
      close_quietly probe;
      match stale with
      | Error why -> refuse path "%s" why
      | Ok () -> (
          (* should this fail, the bind reports it *)
          try Unix.unlink path with Unix.Unix_error _ -> ()))
  | _ -> refuse path "the path exists and is not a socket"

(* The socket file appears at [bind], but connections are refused until
   [listen]; clients wait for the file, so bind a sibling name and give
   the socket its [path] only once it accepts.  A hard link, unlike a
   rename, fails on a [path] another process bound meanwhile instead of
   replacing it. *)
let listen path =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let tmp = path ^ ".tmp" in
  claim path;
  claim tmp;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.unlink tmp with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.bind fd (Unix.ADDR_UNIX tmp);
        Unix.listen fd 64;
        Unix.link tmp path
      with Unix.Unix_error (e, fn, _) ->
        close_quietly fd;
        refuse path "%s: %s" fn (Unix.error_message e));
  fd

type config = {
  socket_path : string;
  workers : int;
  queue_limit : int;
  retry_after_ms : int;
  recv_timeout : float;
  idle_timeout : float;
  tick_interval : float;
  on_request : unit -> unit;
}

type t = {
  role : string;
  cfg : config;
  listen_fd : Unix.file_descr;
  lock : Mutex.t;  (** guards queue and draining *)
  nonempty : Condition.t;
  queue : Unix.file_descr Queue.t;
  mutable draining : bool;  (** shutdown drain has begun *)
  stop_flag : bool Atomic.t;
  (* counters: atomics so workers never contend on the queue lock *)
  accepted : int Atomic.t;
  shed : int Atomic.t;
  shed_shutdown : int Atomic.t;
  client_errors : int Atomic.t;
  slow_client_disconnects : int Atomic.t;
      (** reply writes abandoned because the client stopped reading and
          the connection's I/O deadline or idle bound expired *)
  mutable accept_thread : Thread.t option;
}

let create ~role cfg =
  {
    role;
    cfg;
    listen_fd = listen cfg.socket_path;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    draining = false;
    stop_flag = Atomic.make false;
    accepted = Atomic.make 0;
    shed = Atomic.make 0;
    shed_shutdown = Atomic.make 0;
    client_errors = Atomic.make 0;
    slow_client_disconnects = Atomic.make 0;
    accept_thread = None;
  }

let draining t = Mutex.protect t.lock (fun () -> t.draining)
let queue_depth t = Mutex.protect t.lock (fun () -> Queue.length t.queue)

(* ------------------------------------------------------------------ *)
(* Per-connection framing.                                             *)

(* Per-connection I/O bounds: the whole of one framed read or write must
   finish within [recv_timeout], and bytes must keep moving at least
   every [idle_timeout] seconds (handshake timeout / byte-rate floor). *)
let conn_limits t = Netio.within ~idle:t.cfg.idle_timeout t.cfg.recv_timeout

let send_response t fd resp =
  try Netio.write_frame ~limits:(conn_limits t) fd (Protocol.encode_response resp)
  with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN), _, _) ->
      (* the client vanished mid-response: its problem, not ours *)
      Atomic.incr t.client_errors
  | Xquery.Errors.Error { code = Xquery.Errors.GTLX0014; _ } ->
      (* the client stopped reading mid-reply: abandoning the write frees
         the worker a stalled peer would otherwise pin forever *)
      Atomic.incr t.slow_client_disconnects;
      Log.debug (fun m -> m "dropping slow client: reply write deadline expired")

let overload_reply t ~code_reason ~depth =
  let e =
    Xquery.Errors.make Xquery.Errors.GTLX0009
      (Printf.sprintf "%s overloaded (%s): queue depth %d, retry after %d ms"
         t.role code_reason depth t.cfg.retry_after_ms)
  in
  Protocol.Failure
    (Protocol.error_of ~retry_after_ms:t.cfg.retry_after_ms ~queue_depth:depth e)

let shutting_down t =
  Atomic.incr t.shed_shutdown;
  overload_reply t ~code_reason:"shutting down" ~depth:0

let unless_draining t f = if draining t then shutting_down t else f ()

let counting c f =
  try f ()
  with exn ->
    Atomic.incr c;
    raise exn

let drop t why =
  Atomic.incr t.client_errors;
  Log.debug (fun m -> m "dropping connection: %s" why)

let serve_connection t handle fd =
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      t.cfg.on_request ();
      match Netio.read_frame ~limits:(conn_limits t) fd with
      | Error reason -> drop t reason
      | exception Xquery.Errors.Error { code = Xquery.Errors.GTLX0014; _ } ->
          (* request read deadline / idle bound expired: a mute or
             slow-loris client — it never gets to pin the worker *)
          drop t "request read deadline expired"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          drop t "receive timeout"
      | exception Unix.Unix_error (e, _, _) -> drop t (Unix.error_message e)
      | Ok data ->
          let resp =
            match Protocol.decode_request data with
            | Error reason ->
                Atomic.incr t.client_errors;
                Protocol.Failure
                  (Protocol.error_of
                     (Xquery.Errors.make Xquery.Errors.XPST0003
                        ("malformed request: " ^ reason)))
            | Ok req -> (
                (* an escaping exception is answered as the structured
                   error it wraps to: a request never goes unanswered *)
                try handle req
                with exn ->
                  Protocol.Failure (Protocol.error_of (Xquery.Errors.wrap_exn exn)))
          in
          send_response t fd resp)

(* ------------------------------------------------------------------ *)
(* Worker pool, ticker, admission, drain.                              *)

let worker_loop t handle =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.draining do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue then
      (* draining and nothing left: the pool winds down *)
      Mutex.unlock t.lock
    else begin
      let fd = Queue.pop t.queue in
      Mutex.unlock t.lock;
      (try serve_connection t handle fd
       with exn ->
         (* absolute backstop: a worker never dies *)
         Atomic.incr t.client_errors;
         Log.err (fun m ->
             m "%s worker absorbed an exception: %s" t.role
               (Printexc.to_string exn)));
      loop ()
    end
  in
  loop ()

let ticker_loop t tick =
  while not (Atomic.get t.stop_flag) do
    (try if not (draining t) then tick ()
     with exn ->
       Log.err (fun m ->
           m "%s maintenance absorbed an exception: %s" t.role
             (Printexc.to_string exn)));
    Thread.delay t.cfg.tick_interval
  done

(* No SO_RCVTIMEO: per-connection bounds are enforced end-to-end by
   Netio limits in [serve_connection] — a per-syscall timeout cannot
   stop a slow-loris peer that dribbles one byte per interval. *)
let admit t client =
  Atomic.incr t.accepted;
  Mutex.lock t.lock;
  if t.draining then begin
    Mutex.unlock t.lock;
    send_response t client (shutting_down t);
    close_quietly client
  end
  else if Queue.length t.queue >= t.cfg.queue_limit then begin
    let depth = Queue.length t.queue in
    Mutex.unlock t.lock;
    Atomic.incr t.shed;
    send_response t client (overload_reply t ~code_reason:"queue full" ~depth);
    close_quietly client
  end
  else begin
    Queue.add client t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.lock
  end

let release t =
  close_quietly t.listen_fd;
  try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ()

let shutdown_drain t workers ticker =
  let stragglers =
    Mutex.protect t.lock (fun () ->
        t.draining <- true;
        let fds = List.of_seq (Queue.to_seq t.queue) in
        Queue.clear t.queue;
        Condition.broadcast t.nonempty;
        fds)
  in
  (* queued-but-unserved connections are answered, not abandoned *)
  List.iter
    (fun fd ->
      send_response t fd (shutting_down t);
      close_quietly fd)
    stragglers;
  List.iter Thread.join workers;
  Thread.join ticker;
  release t;
  Log.info (fun m -> m "%s shutdown complete" t.role)

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.05 with
      | [ _ ], _, _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | client, _ -> admit t client
          | exception
              Unix.Unix_error
                ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
              ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  try loop ()
  with exn ->
    Log.err (fun m ->
        m "%s accept loop absorbed an exception: %s" t.role
          (Printexc.to_string exn))

let start t ~handle ~tick =
  let workers =
    List.init (max 1 t.cfg.workers) (fun _ -> Thread.create (worker_loop t) handle)
  in
  let ticker = Thread.create (ticker_loop t) tick in
  t.accept_thread <-
    Some
      (Thread.create
         (fun () ->
           accept_loop t;
           shutdown_drain t workers ticker)
         ())

let request_shutdown t = Atomic.set t.stop_flag true

(* the accept thread runs the drain, so it ends when the drain is done *)
let wait t = Option.iter Thread.join t.accept_thread

let stop t =
  request_shutdown t;
  wait t

(* ------------------------------------------------------------------ *)
(* Counter rows: one table per process feeds both stats and metrics.   *)

type row = {
  name : string;  (** the stats key *)
  value : int;
  exposed : (string * string * string) option;  (** metric kind, name, help *)
}

let counter name help value =
  let metric =
    if String.ends_with ~suffix:"_total" name then "galatex_" ^ name
    else "galatex_" ^ name ^ "_total"
  in
  { name; value; exposed = Some ("counter", metric, help) }

let gauge ?metric name help value =
  let metric = "galatex_" ^ Option.value metric ~default:name in
  { name; value; exposed = Some ("gauge", metric, help) }

let unexported name value = { name; value; exposed = None }

let core_rows t =
  let a = Atomic.get in
  [
    counter "accepted" "Connections accepted." (a t.accepted);
    counter "shed" "Connections shed by admission control." (a t.shed);
    counter "shed_shutdown" "Connections shed during shutdown."
      (a t.shed_shutdown);
    counter "client_errors" "Torn or malformed client exchanges."
      (a t.client_errors);
    counter "slow_client_disconnects"
      "Reply writes abandoned because the client stopped reading."
      (a t.slow_client_disconnects);
    gauge "queue_depth" "Accepted connections awaiting a worker."
      (queue_depth t);
  ]

let stats t rows breaker =
  {
    Protocol.counters =
      List.map (fun r -> (r.name, r.value)) (rows @ core_rows t);
    breakers =
      List.map
        (fun (s : Breaker.snapshot) ->
          {
            Protocol.b_strategy = s.Breaker.strategy;
            b_state = s.Breaker.state;
            b_consecutive = s.Breaker.consecutive;
            b_cooldown = s.Breaker.cooldown;
            b_trips = s.Breaker.trips;
          })
        (Breaker.snapshots breaker);
  }

let metric b ~kind name help v =
  Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n%s %d\n" name help name kind
    name v

let metrics b t rows =
  List.iter
    (fun r ->
      Option.iter
        (fun (kind, name, help) -> metric b ~kind name help r.value)
        r.exposed)
    (rows @ core_rows t)
