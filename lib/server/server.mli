(** The resilient query daemon: concurrent XQuery Full-Text serving over a
    Unix-domain socket.

    One engine (built by {!Galatex.Engine.of_store}) is shared read-only
    by a pool of worker threads; each request gets a {e fresh} governor
    from its own limits, so a runaway query exhausts its own budget, not
    the daemon's.  The engine-boundary guarantee (the only escaping
    exception is a structured error) becomes a serving guarantee here: a
    crashing request answers with a structured error code, the daemon
    stays up.

    Connections are served by the shared core ({!Serving}): the accept
    loop, the admission queue (a full queue sheds with [GTLX0009]
    carrying the queue depth and a retry-after hint), the worker pool,
    the maintenance ticker and the SIGTERM drain.  The daemon supplies
    the request handler and the tick.

    Robustness machinery, all deterministic and fault-injectable:
    - {b per-strategy circuit breakers} ({!Breaker}): consecutive
      internal-error fallbacks trip an optimized strategy to the
      reference path, with request-counted cooldown and half-open probes;
    - {b hot snapshot reload}: on {!request_reload} (the CLI maps SIGHUP
      to it) or a generation-number change observed by the watcher, the
      new snapshot is loaded {e off the request path}, the engine swapped
      atomically, in-flight requests drain on the old one — and a corrupt
      new snapshot is rejected, the old engine keeps serving;
    - {b live updates}: {!Protocol.Update} batches are validated, appended
      to the write-ahead log ({!Ftindex.Wal}) durably {e first}, applied
      to a copy of the engine and swapped in atomically; a single writer
      lock serializes updates, compactions and reloads against each other
      while readers keep serving the pre-update engine;
    - {b online compaction}: an explicit {!Protocol.Compact} request, or
      the log passing [wal_compact_bytes], folds the log into a fresh
      snapshot generation — the threshold variant runs on the maintenance
      ticker, off the request path;
    - {b maintenance}: the tick polls the reload flag, the snapshot
      generation and the compaction flag every [tick_interval], so an
      {e idle} daemon (zero in-flight requests) still reloads and
      compacts;
    - {b graceful shutdown}: {!request_shutdown} (SIGTERM) runs the
      core's drain — in-flight requests finish, queued stragglers get
      [GTLX0009], the socket file is removed — and {!wait} returns. *)

type config = {
  socket_path : string;
  index_dir : string;  (** snapshot directory ({!Galatex.Engine.of_store}) *)
  sources : (string * string) list;  (** salvage sources (uri, XML text) *)
  workers : int;  (** worker threads (default 4) *)
  queue_limit : int;  (** queued connections before shedding (default 64) *)
  default_limits : Xquery.Limits.t;
      (** per-request governor fields a request does not set itself *)
  breaker_threshold : int;  (** consecutive fallbacks to trip (default 5) *)
  breaker_cooldown : int;  (** bypassed requests before a probe (default 8) *)
  watch_generation : bool;
      (** poll the snapshot directory between requests and hot-reload when
          its generation changes, without a SIGHUP (default false) *)
  follow : string option;
      (** replica mode: the primary's socket path.  The daemon becomes a
          read-only follower — it rejects [Update] / [Compact], bootstraps
          an empty index directory by pulling the primary's snapshot, and
          on every maintenance tick probes the primary's health: a base
          generation or manifest-CRC mismatch triggers a full snapshot
          re-sync (anti-entropy), a higher primary sequence number pulls
          the WAL tail ([Fetch_wal]) and applies it durable-first, exactly
          like a primary update.  Default [None] (primary mode).

          This is only the {e starting} role: a [Promote] request flips a
          follower to read-write primary (sealing its log and durably
          bumping the fencing epoch), and a [Demote] from a
          higher-epoch timeline flips a primary back to follower. *)
  follow_timeout : float;
      (** seconds a follower waits on its primary before calling a sync
          step failed — the base unit every replication timeout scales
          from: health probe x1, WAL catch-up x5, snapshot listing x15,
          per-file transfer x30 (default 2.0, preserving the historical
          2/10/30/60 second ladder) *)
  retry_after_ms : int;  (** hint carried by shed responses (default 25) *)
  recv_timeout : float;
      (** per-connection I/O deadline (seconds): the whole of one framed
          request read — and, separately, one reply write — must finish
          within this bound or the connection is dropped with the
          structured [GTLX0014] semantics (default 10.0); an abandoned
          reply write also counts [slow_client_disconnects] *)
  idle_timeout : float;
      (** per-connection progress bound (seconds): max time with zero
          bytes moving during a read or write — the handshake timeout
          and the byte-rate floor that disconnects slow-loris clients
          well before [recv_timeout] (default 2.0) *)
  reload_io : unit -> Ftindex.Store.Io.t;
      (** I/O layer for reloads — tests inject [Store.Io] faults here
          (default {!Ftindex.Store.Io.real}) *)
  on_request : unit -> unit;
      (** test hook, called by a worker as it picks up a connection —
          tests park workers on a gate here to fill the queue
          deterministically (default [ignore]) *)
  update_io : unit -> Ftindex.Store.Io.t;
      (** I/O layer for WAL appends and compactions — tests inject
          [Store.Io] faults here (default {!Ftindex.Store.Io.real}) *)
  wal_compact_bytes : int option;
      (** background-compact when the log reaches this many bytes;
          [None] disables the threshold (default [Some 4194304]) *)
  tick_interval : float;
      (** maintenance ticker period in seconds (default 0.05) *)
  clock : Obs.Clock.t;
      (** time source for latency histograms and the slow-query log —
          tests inject {!Obs.Clock.manual} (default {!Obs.Clock.real}) *)
  slowlog_threshold : float;
      (** queries taking at least this many seconds enter the slow-query
          log (default 0.25) *)
  slowlog_capacity : int;  (** slow-query ring size (default 32) *)
}

val default_config : index_dir:string -> socket_path:string -> config

type t

val start : config -> t
(** Load the snapshot, bind the socket, spawn the pool.
    @raise Xquery.Errors.Error when the initial snapshot load fails
    (storage codes) or the socket is refused ([FODC0002]: see
    {!Serving.listen} — a path that is not a socket, or one a live
    listener answers, is never removed). *)

val request_reload : t -> unit
(** Ask the daemon to reload the snapshot before serving further requests.
    Async-signal-safe (only flips an atomic flag): the CLI calls this from
    its SIGHUP handler. *)

val request_shutdown : t -> unit
(** Begin graceful shutdown.  Async-signal-safe: the CLI calls this from
    its SIGTERM handler. *)

val wait : t -> unit
(** Block until shutdown completes (workers joined, socket unlinked). *)

val stop : t -> unit
(** [request_shutdown] then [wait]. *)

val stats : t -> Protocol.stats_reply
(** Counter snapshot (also served over the wire as {!Protocol.Stats}):
    [queries], [accepted], [served], [errors], [shed], [shed_shutdown],
    [client_errors], [breaker_bypassed], [breaker_trips],
    [fallbacks_total], [reloads], [reload_failures], [salvage_events],
    [generation], [queue_depth], [workers], [updates], [update_errors],
    [compactions], [compaction_failures], [wal_records], [wal_bytes],
    [wal_syncs], [wal_sync_records], [snapshot_resyncs], [sync_failures],
    [follow_lag], [follow_gen_behind], [epoch], [promotions], [demotions],
    [stale_epoch_rejections], [primary_unreachable_ticks],
    [primary_down_streak], [follow_primary_up], [follow_timeout_ms] —
    plus per-strategy breaker states.  All counters (and the metrics
    below) survive hot reloads: they live on the daemon, and the engine's
    own cells are carried across the swap. *)

val metrics_text : t -> string
(** Prometheus-style text exposition (also served over the wire as
    {!Protocol.Metrics}): every stats counter as
    [galatex_<name>_total] / gauge, engine observability counters summed
    over all runs as [galatex_engine_<name>_total], and
    [galatex_query_duration_seconds] histograms labelled by strategy key
    ([translated], [materialized], [pipelined]). *)

val slowlog_entries : t -> Protocol.slow_entry list
(** The slow-query ring (also served as {!Protocol.Slowlog}): queries
    that took at least [slowlog_threshold] seconds, newest first, at most
    [slowlog_capacity] entries. *)

val generation : t -> int
(** Snapshot generation currently serving. *)

val set_reload_io : t -> (unit -> Ftindex.Store.Io.t) -> unit
(** Test hook: replace the reload I/O layer of a running daemon (the
    chaos test arms [Store.Io] faults for the next reload). *)

val set_update_io : t -> (unit -> Ftindex.Store.Io.t) -> unit
(** Test hook: replace the update I/O layer of a running daemon and drop
    the open WAL writer, so the next update reopens the log with the new
    injector armed (the chaos tests aim faults at specific append ops). *)

val snapshot_resync : t -> primary:string -> reason:string -> unit
(** The follower's full re-sync step, as the maintenance ticker runs it
    when its generation or manifest CRC disagrees with [primary]'s: pull
    the snapshot and swap it in.  Does nothing unless the daemon still
    follows [primary] once it holds the writer lock, so a step decided
    before a {!Protocol.Promote} cannot undo the promotion.  Exported so
    tests can replay such a step. *)

val catch_up_wal : t -> primary:string -> unit
(** The follower's log catch-up step: fetch and apply [primary]'s
    acknowledged records past its own.  Guarded like
    {!snapshot_resync}. *)
