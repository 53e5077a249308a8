(** The document-sharded cluster router: one daemon speaking the query
    protocol on both sides.

    Clients connect to the router exactly as they would to a single
    daemon (same framed protocol, same {!Galatex_server.Client}); behind
    it, N shard daemons each own a document partition cut by
    {!Corpus.Partition.shard_of_uri}.  Connections are served by the
    daemon's own core ({!Galatex_server.Serving}: accept loop, admission
    queue with [GTLX0009] shedding, worker pool, ticker, drain); the
    router supplies the request handler and the tick.  Per request kind:

    - {b queries} scatter to every shard concurrently — from the worker
      that received the query, one [select] loop over the shard requests
      in flight, no thread per shard — each carrying the remaining
      deadline budget ([deadline_left]) so the whole fan-out spends the
      caller's one budget, and the answers merge per
      {!Merge}: concat in cluster document order, summed counts, or
      top-k by score upper bound;
    - {b partial results}: a shard that stays down past retries (primary
      and replicas) costs its partition, not the query — the merged
      answer is tagged [GTLX0011] with the missing partition indices;
      when {e no} partition answers, the query fails with [GTLX0011];
      a static / dynamic / type error from any shard is the query's own
      failure and propagates as-is;
    - {b failover}: each endpoint (primary or replica) has its own
      circuit breaker ({!Galatex_server.Breaker}, keyed by socket path);
      a tripped endpoint is skipped without paying its timeout, and when
      every endpoint of a shard is tripped the shard is declared down
      immediately — no waiting;
    - {b bounded staleness}: the router tracks each shard's freshest
      known (generation, seq) position from update acks, query replies
      and health probes; with [max_lag] set, a failover read from a
      replica more than that many WAL records behind — or on an older
      base generation — is skipped like a down endpoint.  When a
      partition's only live endpoints are too-stale replicas the query
      fails with [GTLX0012] (not [GTLX0011]: the caller's freshness
      bound, not an outage).  Unbounded ([max_lag = None]) serves any
      replica but warns and counts [stale_served];
    - {b updates} route by document hash to the owning shard's
      {e current} primary only (single-writer semantics; replicas never
      see writes from the router), acknowledged per batch with summed
      counts, each stamped with the highest fencing epoch the router has
      observed for the shard so a superseded node rejects them with
      [GTLX0013] instead of forking the timeline — a fenced write
      triggers an immediate re-discovery of the shard's primary and
      epoch;
    - {b primary failover} ([primary_failover]): the ticker probes every
      endpoint of every shard; after [failover_ticks] consecutive dead
      probes of a shard's current primary it promotes the freshest
      eligible follower — not draining, within [max_lag] of the shard's
      freshest known position, maximal by (epoch, generation, seq) — via
      [Promote], carrying the highest epoch the router has seen so the
      new timeline supersedes every old one.  The same sweep {e adopts}
      primaries promoted elsewhere (a manual [galatex promote]) when
      their epoch is at least the shard's, and {e fences} reappeared old
      primaries still claiming the role at a lower epoch by sending them
      [Demote], pointing at the live primary to re-sync from;
    - {b rolling reload} (SIGHUP or a wire [Reload]): shards reload one
      at a time, each gated on the previous shard's synchronous
      [Reload] reply — the proof it is serving its new generation —
      so N-1 shards always serve during a roll. *)

type endpoint = {
  primary : string;  (** the shard's writer daemon (socket path) *)
  replicas : string list;  (** read-only failover daemons, tried in order *)
}

type config = {
  socket_path : string;  (** where the router itself listens *)
  shards : endpoint list;  (** partition [i] is served by element [i] *)
  workers : int;  (** router worker threads (default 4) *)
  queue_limit : int;  (** queued connections before shedding (default 64) *)
  retries : int;
      (** extra endpoint sweeps per shard per query after the first
          (default 2); each sweep tries primary then replicas *)
  max_lag : int option;
      (** failover freshness bound: skip a replica whose reply is more
          than this many WAL records behind the shard's freshest known
          position (or on an older base generation) as if it were down.
          [None] (the default) serves any replica, logging a warning and
          counting [stale_served] when it is behind.  Also gates failover
          {e promotion} eligibility when [primary_failover] is set. *)
  primary_failover : bool;
      (** promote a follower when the shard's primary stops answering
          probes, adopt externally-made promotions, and fence stale old
          primaries (default false: the router only re-discovers on a
          fenced write, it never promotes) *)
  failover_ticks : int;
      (** consecutive failed probe sweeps of the current primary before
          a promotion is attempted (default 3); sweeps pace at
          [max tick_interval (probe_timeout / 4)] seconds *)
  default_deadline : float;
      (** per-query budget in seconds when the client set neither
          [deadline_left] nor a timeout limit (default 5.0) *)
  breaker_threshold : int;
      (** consecutive failures to trip an endpoint (default 3) *)
  breaker_cooldown : int;
      (** routed requests an open endpoint skips before a probe
          (default 8) *)
  retry_after_ms : int;  (** hint carried by shed responses (default 25) *)
  recv_timeout : float;
      (** per-connection I/O deadline (seconds): one framed client
          request read — and, separately, one reply write — must finish
          within this bound or the connection is dropped (default 10.0);
          abandoned reply writes count [slow_client_disconnects] *)
  idle_timeout : float;
      (** per-connection progress bound (seconds): handshake timeout and
          byte-rate floor against slow-loris clients (default 2.0) *)
  probe_timeout : float;
      (** per-endpoint wait for a health probe reply (default 2.0) *)
  reload_timeout : float;
      (** per-endpoint wait for a synchronous reload reply — reloads
          replay the write-ahead log, so this is generous (default 60.0) *)
  tick_interval : float;  (** maintenance ticker period (default 0.05) *)
  on_request : unit -> unit;
      (** test hook, called by a worker as it picks up a connection
          (default [ignore]) *)
  jitter : float -> float;
      (** maps the deterministic backoff bound to the actual wait
          (default: uniform in [0.5x, 1.0x]) *)
  sleep : float -> unit;
      (** test hook for the backoff of update and compaction retries
          (default [Unix.sleepf]); a query's backoff between sweeps is a
          wait in the scatter loop *)
}

val default_config : shards:endpoint list -> socket_path:string -> config

type t

val start : config -> t
(** Bind the router socket and spawn the pool.  The shard daemons are
    {e not} contacted at startup: a shard that is down simply costs its
    partition on the first queries, exactly as it would mid-flight.
    @raise Invalid_argument when [shards] is empty.
    @raise Xquery.Errors.Error [FODC0002] when the socket is refused
    ({!Galatex_server.Serving.listen}). *)

val request_reload : t -> unit
(** Ask the ticker to run a rolling reload across the shards.
    Async-signal-safe (only flips an atomic flag): the CLI calls this
    from its SIGHUP handler. *)

val request_shutdown : t -> unit
(** Begin graceful shutdown.  Async-signal-safe. *)

val wait : t -> unit
val stop : t -> unit

val stats : t -> Galatex_server.Protocol.stats_reply
(** Router counters ([route_queries], [route_partial], [route_failed],
    [served] — queries answered with a value, full or partial —
    [shard_attempts], [shard_errors], [shard_bypassed], [stale_skips],
    [stale_served], [failovers], [failover_failures], [demotes_sent],
    [fenced_writes], ...) plus one breaker snapshot per shard endpoint
    (the [strategy] field carries the endpoint's socket path). *)

val metrics_text : t -> string
(** Prometheus-style exposition of the router counters plus per-shard
    health gauges ([galatex_route_shard_up{shard="i"}], from the most
    recent contact with each shard) and per-replica freshness gauges
    ([galatex_route_replica_lag{shard,endpoint}]: WAL records behind the
    shard's freshest known position at last contact, or [-1] when the
    replica's base generation is behind). *)

val cluster_health :
  t ->
  (Galatex_server.Protocol.health_reply, Galatex_server.Protocol.error_reply)
  result
(** Probe {e every} endpoint of every shard and merge: generation and
    seq are the {e minimum} across answering shards (the serving floor),
    WAL records sum, draining is true when the router or any answering
    shard is draining, and [h_endpoints] carries one row per endpoint —
    role, breaker state, up/down, (generation, seq) and replication lag
    against the shard's freshest known position.  [Error] with
    [GTLX0011] when no shard answers. *)

val rolling_reload :
  t ->
  (Galatex_server.Protocol.health_reply, Galatex_server.Protocol.error_reply)
  result
(** Reload the shards one at a time, in partition order, each gated on
    the previous shard's synchronous reload reply.  A primary that fails
    to reload aborts the roll (the remaining shards keep serving their
    old generation — [Error] says how far the roll got); a replica that
    fails is logged and skipped, since replicas only serve failover
    reads. *)
