(** The serving core shared by the query daemon ({!Server}) and the
    cluster router: everything about answering framed requests on a
    Unix-domain socket that does not depend on what a request means.

    Thread architecture:
    - {b accept thread}: a select/accept loop with admission control — a
      bounded queue of accepted connections; when it is full a new
      connection is answered at once with [GTLX0009] carrying the queue
      depth and a retry-after hint.  On shutdown it runs the drain.
    - {b worker pool}: each worker pops one connection, reads one framed
      request under the connection's [Netio] bounds, passes it to the
      caller's handler, writes one framed response and closes.  Every
      failure mode — torn frame, malformed request, a raising handler, a
      vanished or stalled client — is absorbed and counted; a worker
      never dies.
    - {b maintenance ticker}: calls the caller's [tick] every
      [tick_interval] seconds until the drain begins, so an idle process
      still does its background work.

    The caller supplies only a [Protocol.request -> Protocol.response]
    handler and a tick function; the daemon and the router keep their
    role-specific counters themselves. *)

val listen : string -> Unix.file_descr
(** Bind and listen on a Unix socket path, with SIGPIPE ignored (a write
    to a vanished peer must be [EPIPE], not a dead process).  Startup
    never deletes what it does not own:
    - a path that exists and is not a socket is refused, untouched;
    - a socket that a live listener answers is refused;
    - a stale socket (connect gets [ECONNREFUSED] — its process died
      without removing it) is replaced.
    The socket is bound as [path ^ ".tmp"] (the same rules apply to
    that name) and linked to [path] once it listens, so a client that
    sees the file can connect at once.
    @raise Xquery.Errors.Error [FODC0002] when the path is refused or
    cannot be bound. *)

type config = {
  socket_path : string;
  workers : int;  (** worker threads (at least 1 runs) *)
  queue_limit : int;  (** queued connections before shedding *)
  retry_after_ms : int;  (** hint carried by shed responses *)
  recv_timeout : float;
      (** per-connection deadline (seconds) for one framed request read
          and, separately, one reply write *)
  idle_timeout : float;
      (** per-connection progress bound (seconds) during a read or
          write: the handshake timeout and byte-rate floor *)
  tick_interval : float;  (** maintenance ticker period (seconds) *)
  on_request : unit -> unit;
      (** called by a worker as it picks up a connection — tests park
          workers here to fill the queue deterministically *)
}

type t

val create : role:string -> config -> t
(** Bind the socket ({!listen}) and allocate the queue and counters;
    nothing is spawned yet, so connections wait in the listen backlog.
    [role] names the process in shed replies and log lines ("server",
    "router").
    @raise Xquery.Errors.Error [FODC0002] when the socket is refused. *)

val start :
  t -> handle:(Protocol.request -> Protocol.response) -> tick:(unit -> unit) ->
  unit
(** Spawn the workers, the ticker and the accept thread.  An exception
    escaping [handle] is answered as the structured error it wraps to;
    one escaping [tick] is logged. *)

val release : t -> unit
(** Close the listen socket and remove its file: for a core whose
    caller failed between {!create} and {!start} (the drain does this
    itself). *)

val draining : t -> bool
(** The shutdown drain has begun. *)

val unless_draining : t -> (unit -> Protocol.response) -> Protocol.response
(** [f ()], or — once the drain has begun — a [GTLX0009] "shutting
    down" reply counted in [shed_shutdown]. *)

val counting : int Atomic.t -> (unit -> 'a) -> 'a
(** [counting c f] is [f ()], counting an exception that escapes it in
    [c] on its way to the core, which answers it as above. *)

val request_shutdown : t -> unit
(** Begin the drain.  Async-signal-safe (only flips an atomic flag):
    within one accept tick the loop stops accepting, answers queued
    stragglers with [GTLX0009], joins the workers (in-flight requests
    finish) and the ticker, and removes the socket file. *)

val wait : t -> unit
(** Block until the drain is complete. *)

val stop : t -> unit
(** [request_shutdown] then [wait]. *)

(** {1 Counters}

    Each process keeps one table of counter rows; {!stats} and
    {!metrics} both render it, after the core's own rows ([accepted],
    [shed], [shed_shutdown], [client_errors], [slow_client_disconnects]
    counters and the [queue_depth] gauge), so a stats key and its metric
    cannot drift apart. *)

type row
(** A stats key, its value, and how it is exported as a metric. *)

val counter : string -> string -> int -> row
(** [counter name help v]: stats key [name], metric
    [galatex_<name>_total] ([galatex_<name>] when [name] already ends in
    [_total]) with [HELP] text [help]. *)

val gauge : ?metric:string -> string -> string -> int -> row
(** [gauge name help v]: stats key [name], gauge [galatex_<metric>]
    ([metric] defaults to [name]). *)

val unexported : string -> int -> row
(** A stats key with no metric. *)

val stats : t -> row list -> Breaker.t -> Protocol.stats_reply
(** [stats t rows breaker]: the caller's [rows], then the core's, with
    one breaker row per key of [breaker]. *)

val metric : Buffer.t -> kind:string -> string -> string -> int -> unit
(** [metric b ~kind name help v] appends one Prometheus sample with its
    [HELP] and [TYPE] ([kind] is ["counter"] or ["gauge"]) lines. *)

val metrics : Buffer.t -> t -> row list -> unit
(** The exported rows of {!stats}, in the same order, as Prometheus
    text. *)
