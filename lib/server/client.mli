(** Client side of the daemon protocol: connect, one framed request, one
    framed response.

    {!query} adds the resilience the ISSUE's serving story needs on the
    client: when the daemon sheds the request ([GTLX0009]) or the socket
    refuses the connection, it retries with jittered exponential backoff,
    seeded by the daemon's own retry-after hint when one came back. *)

val default_io_timeout : float
(** Default whole-exchange deadline (seconds) for the one-shot commands
    ({!stats}, {!health}, {!promote}, ...): they must answer or fail
    against a stalled endpoint, never hang. *)

val request :
  ?recv_timeout:float ->
  socket_path:string ->
  Protocol.request ->
  (Protocol.response, string) result
(** One round trip on a fresh connection: {!send} then {!receive}.
    [Error reason] covers transport failures only
    (connect/read/write/decode); a structured evaluation failure is
    [Ok (Failure _)].  [recv_timeout] (seconds) is an absolute budget for
    the whole exchange — connect, request write, reply read — enforced by
    {!Netio}, so a mute, stalled, or slow-loris peer surfaces as
    [Error "gtlx:GTLX0014: ..."] instead of a hang (the cluster router's
    scatter path and every CLI one-shot rely on it).  Omitted =
    unbounded. *)

type pending
(** A request written to its connection whose reply has not been read. *)

val send :
  ?recv_timeout:float ->
  socket_path:string ->
  Protocol.request ->
  (pending, string) result
(** The send half of {!request}: connect, write the request frame and
    shut down the sending side, all within [recv_timeout], which goes on
    bounding the receive half.  [Error] as {!request}; on [Error] no
    connection stays open. *)

val receive : pending -> (Protocol.response, string) result
(** The receive half of {!request}: wait for the reply within the
    exchange's budget, then close the connection. *)

val try_receive : pending -> (Protocol.response, string) result option
(** {!receive} without waiting: read what the socket holds.  [None] =
    the reply is incomplete and the budget still holds (call again when
    {!fd} is readable, or once {!deadline} has passed, which turns it
    into the [GTLX0014] error); [Some] = done, connection closed. *)

val fd : pending -> Unix.file_descr
(** The connection, for a caller's [select]. *)

val deadline : pending -> float option
(** The exchange's absolute deadline ([Unix.gettimeofday] clock). *)

val abandon : pending -> unit
(** Close the connection without reading the reply. *)

val shed_reply : Protocol.response -> Protocol.error_reply option
(** The overload-shed failure ([GTLX0009]) carried by a response, if that
    is what it is — the retryable case shared by {!query} and the cluster
    router's unicast retry loop. *)

val backoff_bound : base_ms:int -> cap_ms:int -> attempt:int -> float
(** Deterministic upper bound (seconds) on the wait before retry attempt
    [attempt] (1-based): [min cap (base * 2^(attempt-1))], clamped so it
    never falls below [base] nor exceeds [cap] and never overflows.  Pure
    — property-tested directly. *)

val query :
  socket_path:string ->
  ?retries:int ->
  ?base_delay_ms:int ->
  ?cap_delay_ms:int ->
  ?jitter:(float -> float) ->
  ?sleep:(float -> unit) ->
  ?deadline:float ->
  Protocol.query_request ->
  (Protocol.response, string) result
(** Send a query, retrying up to [retries] extra times (default 0) when
    the daemon sheds it with [GTLX0009] or the connection fails outright
    — including [ECONNREFUSED] and a missing socket file, so a client
    loop survives a daemon restart.  Backoff before attempt [k] is
    [backoff_bound ~base_ms ~cap_ms ~attempt:k * jitter] where [base_ms]
    is the shed response's [retry_after_ms] hint when present, else
    [base_delay_ms] (default 25); [cap_delay_ms] bounds the wait (default
    5000), and [jitter] maps the deterministic upper bound to the actual
    wait (default: uniform random in [0.5x, 1.0x]).  [sleep] is a test
    hook (default [Unix.sleepf]).

    [deadline] is an absolute [Unix.gettimeofday] instant bounding the
    {e whole} retry loop: every attempt advertises the remaining budget
    over the wire ([deadline_left], which the daemon clamps its timeout
    to), the receive wait and backoff sleeps are capped to it, and once it
    passes the last outcome is returned instead of retrying — so a query
    with a 2 s budget spends 2 s total, not 2 s per attempt.

    Returns the last response (possibly still the shed failure) or the
    last transport error once retries or the deadline are exhausted. *)

val stats :
  ?recv_timeout:float ->
  socket_path:string ->
  unit ->
  (Protocol.stats_reply, string) result
(** Fetch the daemon's counter snapshot; [Error] on transport failure or
    a non-stats response.  [recv_timeout] defaults to
    {!default_io_timeout}. *)

val metrics :
  ?recv_timeout:float -> socket_path:string -> unit -> (string, string) result
(** Fetch the Prometheus-style text exposition; [Error] on transport
    failure or an unexpected response. *)

val slowlog :
  ?recv_timeout:float ->
  socket_path:string ->
  unit ->
  (Protocol.slow_entry list, string) result
(** Fetch the slow-query log (newest first); [Error] on transport failure
    or an unexpected response. *)

val health :
  ?recv_timeout:float ->
  socket_path:string ->
  unit ->
  (Protocol.health_reply, string) result
(** Probe liveness: the daemon answers from atomics without touching the
    engine, so this is cheap enough to poll every router tick.  Like all
    one-shots, [recv_timeout] defaults to {!default_io_timeout} (reload:
    60 s, since it swaps a snapshot generation synchronously) — pass a
    tighter bound for probe loops. *)

val reload :
  ?recv_timeout:float ->
  socket_path:string ->
  unit ->
  (Protocol.health_reply, string) result
(** Ask the daemon to reload its snapshot {e synchronously} and return the
    post-reload health snapshot.  The reply is the rolling-reload gate: it
    proves the daemon finished the swap and is serving again, and carries
    the generation so the caller can verify which one. *)

val promote :
  ?recv_timeout:float ->
  socket_path:string ->
  epoch:int ->
  unit ->
  (Protocol.health_reply, string) result
(** Ask the daemon to become primary: seal its log, durably bump its
    fencing epoch past [max own_epoch epoch], and start accepting writes.
    The reply proves the flip ([h_role = "primary"]) and carries the new
    epoch ([h_epoch]) the caller must stamp on subsequent writes.  Pass
    [epoch] as the highest epoch the caller has observed anywhere (0 when
    unknown) so the new timeline is beyond every old one. *)

val demote :
  ?recv_timeout:float ->
  socket_path:string ->
  epoch:int ->
  primary:string ->
  unit ->
  (Protocol.health_reply, string) result
(** Tell the daemon a primary at [epoch] exists at socket path [primary]:
    it steps down to follower, re-syncs from [primary], and the reply
    shows the new role.  [Error "gtlx:GTLX0013: ..."] when [epoch] does
    not exceed the daemon's own — demotion must only flow from a higher
    timeline. *)

val fetch_wal :
  ?recv_timeout:float ->
  socket_path:string ->
  from_seq:int ->
  ?epoch:int ->
  unit ->
  (Protocol.wal_reply, string) result
(** Fetch acknowledged WAL records with sequence numbers past [from_seq]
    from a primary — the follower's catch-up pull.  [epoch] (default 0 =
    don't fence) is the follower's idea of the primary's epoch: a node at
    a lower epoch refuses with [GTLX0013], telling the follower its
    upstream is stale.  [Error] on transport failure, a structured
    failure, or an unexpected response. *)

val fetch_snapshot :
  ?recv_timeout:float ->
  socket_path:string ->
  ?file:string ->
  unit ->
  (Protocol.snapshot_reply, string) result
(** Without [file]: the primary's current snapshot generation, manifest
    CRC and file listing.  With [file]: that file's raw bytes
    ([sn_data = Some _]).  The follower's bootstrap / re-sync pull. *)
