(* The resilient query daemon (see server.mli for the contract).

   Connection handling — accept loop, admission queue, worker pool,
   maintenance ticker and drain — is the shared serving core
   ({!Serving}).  This module is the daemon's two parts on top of it:

     [handle]        one framed request to one response: evaluates a
                     query under a fresh governor, applies updates, serves
                     replication pulls, answers stats.
     [tick]          the maintenance pass the core's ticker runs: polls the
                     reload flag and the snapshot generation (so an *idle*
                     daemon observes new snapshots too), runs
                     threshold-triggered WAL compaction, and on a follower
                     tails the primary — all off the request path.

   Live updates are single-writer: one [update_lock] serializes Update and
   Compact requests (whichever worker carries them), reloads and background
   compactions against each other.  Readers never take it — they keep
   serving the pre-update engine until the atomic engine swap (which takes
   only [lock]).  Lock order: [update_lock] strictly before [lock].

   Signal handlers must not take locks (the main thread may hold them), so
   [request_reload] / [request_shutdown] only flip atomics; the ticker and
   accept loops notice within one tick. *)

let src = Logs.Src.create "galatex.server" ~doc:"GalaTex query daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  socket_path : string;
  index_dir : string;
  sources : (string * string) list;
  workers : int;
  queue_limit : int;
  default_limits : Xquery.Limits.t;
  breaker_threshold : int;
  breaker_cooldown : int;
  watch_generation : bool;
  follow : string option;
  follow_timeout : float;
      (** seconds a follower waits on its primary before calling a sync
          step failed; the base unit every replication timeout scales
          from (probe x1, WAL catch-up x5, snapshot listing x15, file
          transfer x30) *)
  retry_after_ms : int;
  recv_timeout : float;
  idle_timeout : float;
      (** per-connection progress bound (seconds): max time with zero
          bytes moving during a request read or reply write — the
          handshake timeout and the byte-rate floor that disconnects
          slow-loris clients long before [recv_timeout] *)
  reload_io : unit -> Ftindex.Store.Io.t;
  on_request : unit -> unit;
  update_io : unit -> Ftindex.Store.Io.t;
  wal_compact_bytes : int option;
  tick_interval : float;
  clock : Obs.Clock.t;
  slowlog_threshold : float;  (** seconds; queries at or above it are logged *)
  slowlog_capacity : int;
}

let default_config ~index_dir ~socket_path =
  {
    socket_path;
    index_dir;
    sources = [];
    workers = 4;
    queue_limit = 64;
    default_limits = Xquery.Limits.defaults;
    breaker_threshold = 5;
    breaker_cooldown = 8;
    watch_generation = false;
    follow = None;
    follow_timeout = 2.0;
    retry_after_ms = 25;
    recv_timeout = 10.0;
    idle_timeout = 2.0;
    reload_io = (fun () -> Ftindex.Store.Io.real ());
    on_request = ignore;
    update_io = (fun () -> Ftindex.Store.Io.real ());
    wal_compact_bytes = Some (4 * 1024 * 1024);
    tick_interval = 0.05;
    clock = Obs.Clock.real;
    slowlog_threshold = 0.25;
    slowlog_capacity = 32;
  }

type t = {
  cfg : config;
  core : Serving.t;
  lock : Mutex.t;  (** guards engine, reload_io *)
  mutable engine : Galatex.Engine.t;
  mutable reload_io_now : unit -> Ftindex.Store.Io.t;
  reload_flag : bool Atomic.t;
  compact_flag : bool Atomic.t;
  update_lock : Mutex.t;
      (** single-writer: serializes updates, compactions and reloads;
          taken strictly before [lock] *)
  mutable writer : Ftindex.Wal.writer option;  (** guarded by update_lock *)
  mutable update_io_now : unit -> Ftindex.Store.Io.t;
      (** guarded by update_lock *)
  breaker : Breaker.t;
  (* counters: atomics so workers never contend on a lock *)
  served : int Atomic.t;
  errors : int Atomic.t;
  breaker_bypassed : int Atomic.t;
  reloads : int Atomic.t;
  reload_failures : int Atomic.t;
  salvage_events : int Atomic.t;
  updates : int Atomic.t;  (** WAL records acknowledged *)
  update_errors : int Atomic.t;
  compactions : int Atomic.t;
  compaction_failures : int Atomic.t;
  (* lock-free mirrors of the writer's log size, for stats *)
  wal_records_now : int Atomic.t;
  wal_bytes_now : int Atomic.t;
  (* replication state: the manifest fingerprint this daemon serves, the
     primary's last observed position (followers), and sync counters *)
  manifest_crc_now : int Atomic.t;
  primary_gen_now : int Atomic.t;
  primary_seq_now : int Atomic.t;
  wal_syncs : int Atomic.t;  (** catch-up pulls that applied records *)
  wal_sync_records : int Atomic.t;  (** records applied via replication *)
  snapshot_resyncs : int Atomic.t;
  sync_failures : int Atomic.t;
  (* failover state: the role can flip at runtime (Promote / Demote), so
     it lives here, not in the immutable config; the fencing epoch mirrors
     the manifest's and is refreshed whenever the manifest moves *)
  follow_now : string option Atomic.t;
      (** [Some primary] = replica following it; [None] = primary *)
  epoch_now : int Atomic.t;  (** fencing epoch of the manifest now serving *)
  primary_unreachable_ticks : int Atomic.t;
      (** total follower ticks whose health probe got no answer *)
  primary_down_streak : int Atomic.t;
      (** consecutive unanswered probes; 0 while the primary answers *)
  stale_epoch_rejections : int Atomic.t;  (** requests fenced with GTLX0013 *)
  promotions : int Atomic.t;
  demotions : int Atomic.t;
  (* observability state lives on [t], not the engine, so a hot reload's
     engine swap cannot reset it *)
  queries : int Atomic.t;  (** Query requests evaluated (success or error) *)
  engine_counters : Obs.Metrics.t;
      (** engine-run counter totals, accumulated per report *)
  histograms : (string * Obs.Histogram.t) list;
      (** per-strategy latency histograms, pre-created so the request
          path only ever reads this list *)
  slowlog : Protocol.slow_entry Obs.Ring.t;
}

(* all strategy keys a request can carry — histogram labels are bounded *)
let strategy_keys = [ "translated"; "materialized" ]

let locked t f = Mutex.protect t.lock f

let current_engine t = locked t (fun () -> t.engine)

let generation t =
  Option.value (Galatex.Engine.generation (current_engine t)) ~default:0

let refresh_manifest_crc t =
  Atomic.set t.manifest_crc_now
    (Option.value ~default:0 (Ftindex.Store.manifest_crc ~dir:t.cfg.index_dir));
  (* the epoch travels inside the manifest, so the two mirrors move
     together: every install / compact / bump shows up in both *)
  Atomic.set t.epoch_now
    (Option.value ~default:1 (Ftindex.Store.current_epoch ~dir:t.cfg.index_dir))

let current_follow t = Atomic.get t.follow_now

let role t =
  match current_follow t with Some _ -> "replica" | None -> "primary"

(* ------------------------------------------------------------------ *)
(* Request evaluation: breaker routing + fresh governor per request.   *)

let effective_limits cfg (rl : Xquery.Limits.t) =
  let d = cfg.default_limits in
  let pick a b = match a with Some _ -> a | None -> b in
  {
    Xquery.Limits.max_steps = pick rl.Xquery.Limits.max_steps d.Xquery.Limits.max_steps;
    max_depth = pick rl.Xquery.Limits.max_depth d.Xquery.Limits.max_depth;
    max_matches = pick rl.Xquery.Limits.max_matches d.Xquery.Limits.max_matches;
    timeout = pick rl.Xquery.Limits.timeout d.Xquery.Limits.timeout;
  }

let optimized (q : Protocol.query_request) =
  q.Protocol.strategy <> Galatex.Engine.Native_materialized

let strategy_key (q : Protocol.query_request) =
  Galatex.Engine.strategy_name q.Protocol.strategy

(* Latency, engine-counter and slow-query accounting around one Query
   request.  Runs on both the success and the failure path: a failing
   query spent real time too. *)
let observe_query t (q : Protocol.query_request) ~duration ~steps =
  Atomic.incr t.queries;
  (match List.assoc_opt (strategy_key q) t.histograms with
  | Some h -> Obs.Histogram.observe h duration
  | None -> ());
  if duration >= t.cfg.slowlog_threshold then
    Obs.Ring.add t.slowlog
      {
        Protocol.s_query = q.Protocol.query;
        s_strategy = strategy_key q;
        s_duration_ms = duration *. 1000.0;
        s_unix_time = t.cfg.clock ();
        s_steps = steps;
      }

let accumulate_counters t (c : Xquery.Limits.counters) =
  List.iter
    (fun (name, v) -> Obs.Metrics.add t.engine_counters name v)
    (Xquery.Limits.counters_to_list c)

let eval_query t (q : Protocol.query_request) =
  let engine = current_engine t in
  let gen = Option.value (Galatex.Engine.generation engine) ~default:0 in
  let seq = Atomic.get t.wal_records_now in
  let limits = effective_limits t.cfg q.Protocol.limits in
  (* the caller's remaining budget caps whatever timeout would apply: a
     retried or scatter-forwarded request spends the one original budget
     instead of restarting it on every hop *)
  let limits =
    match q.Protocol.deadline_left with
    | None -> limits
    | Some left ->
        let timeout =
          match limits.Xquery.Limits.timeout with
          | Some t -> Float.min t left
          | None -> left
        in
        { limits with Xquery.Limits.timeout = Some (Float.max 0. timeout) }
  in
  let t0 = t.cfg.clock () in
  let decision =
    if optimized q then Breaker.route t.breaker (strategy_key q)
    else Breaker.Run
  in
  let strategy, fault_at =
    match decision with
    | Breaker.Bypass ->
        (* tripped: serve on the reference path.  The injected eval fault
           (if any) targets the requested strategy's run; a bypassed
           request runs clean — that bypass is exactly the protection. *)
        Atomic.incr t.breaker_bypassed;
        (Galatex.Engine.Native_materialized, None)
    | Breaker.Run | Breaker.Probe -> (q.Protocol.strategy, q.Protocol.fault_at)
  in
  let record ok =
    match decision with
    | Breaker.Run | Breaker.Probe ->
        if optimized q then Breaker.record t.breaker (strategy_key q) ~ok
    | Breaker.Bypass -> ()
  in
  match
    Galatex.Engine.run_report engine ~strategy ~limits ?fault_at
      ~fallback:q.Protocol.fallback ?context:q.Protocol.context q.Protocol.query
  with
  | report ->
      record (not report.Galatex.Engine.fell_back);
      Atomic.incr t.served;
      accumulate_counters t report.Galatex.Engine.counters;
      observe_query t q
        ~duration:(t.cfg.clock () -. t0)
        ~steps:report.Galatex.Engine.steps;
      Protocol.Value
        {
          Protocol.items =
            List.map
              (fun item -> Fmt.str "%a" Xquery.Value.pp_item item)
              report.Galatex.Engine.value;
          strategy_used =
            Galatex.Engine.strategy_name report.Galatex.Engine.strategy_used;
          fell_back = report.Galatex.Engine.fell_back;
          steps = report.Galatex.Engine.steps;
          generation = gen;
          seq;
          partial = None;
        }
  | exception Xquery.Errors.Error e ->
      (* user errors and resource limits are the request's own problem;
         only an internal error counts against the strategy *)
      record
        (Xquery.Errors.class_of e.Xquery.Errors.code <> Xquery.Errors.Internal);
      Atomic.incr t.errors;
      observe_query t q ~duration:(t.cfg.clock () -. t0) ~steps:0;
      Protocol.Failure (Protocol.error_of e)

(* ------------------------------------------------------------------ *)
(* Stats.                                                              *)

(* The daemon's counter table: its stats rows and its metrics. *)
let rows t =
  let engine = current_engine t in
  (* lag is only well-defined at a matched base generation; a follower
     whose generation trails its primary is flagged, not lag-numbered *)
  let follow_lag, follow_gen_behind =
    let pg = Atomic.get t.primary_gen_now in
    let my_gen = Option.value (Galatex.Engine.generation engine) ~default:0 in
    if pg = 0 then (0, 0)
    else if pg <> my_gen then (0, 1)
    else (max 0 (Atomic.get t.primary_seq_now - Atomic.get t.wal_records_now), 0)
  in
  let a = Atomic.get in
  Serving.
    [
      counter "queries" "Query requests evaluated." (a t.queries);
      counter "served" "Queries answered with a value." (a t.served);
      counter "errors" "Queries answered with an error." (a t.errors);
      counter "breaker_bypassed"
        "Requests routed to the reference path by an open breaker."
        (a t.breaker_bypassed);
      counter "breaker_trips" "Circuit-breaker trips."
        (Breaker.trips_total t.breaker);
      counter "fallbacks_total" "Engine strategy fallbacks."
        (Galatex.Engine.fallback_count engine);
      counter "reloads" "Hot snapshot reloads." (a t.reloads);
      counter "reload_failures" "Rejected snapshot reloads."
        (a t.reload_failures);
      counter "salvage_events" "Snapshot loads that needed salvage."
        (a t.salvage_events);
      gauge "generation" "Snapshot generation now serving."
        (Option.value (Galatex.Engine.generation engine) ~default:0);
      unexported "workers" t.cfg.workers;
      counter "updates" "WAL records acknowledged." (a t.updates);
      counter "update_errors" "Failed update requests." (a t.update_errors);
      counter "compactions" "WAL compactions." (a t.compactions);
      counter "compaction_failures" "Failed WAL compactions."
        (a t.compaction_failures);
      gauge "wal_records" "Records in the write-ahead log." (a t.wal_records_now);
      gauge "wal_bytes" "Write-ahead log size in bytes." (a t.wal_bytes_now);
      counter "wal_syncs" "Replication catch-up pulls that applied shipped records."
        (a t.wal_syncs);
      counter "wal_sync_records" "WAL records applied via replication."
        (a t.wal_sync_records);
      counter "snapshot_resyncs" "Full snapshot re-syncs pulled from the primary."
        (a t.snapshot_resyncs);
      counter "sync_failures" "Failed replication pulls." (a t.sync_failures);
      gauge "follow_lag"
        "Records behind the primary at a matched base generation (followers)."
        follow_lag;
      gauge ~metric:"follow_generation_behind" "follow_gen_behind"
        "1 when this follower's base generation trails its primary's."
        follow_gen_behind;
      gauge "epoch" "Fencing epoch of the manifest now serving." (a t.epoch_now);
      counter "promotions" "Promotions to primary." (a t.promotions);
      counter "demotions" "Demotions to follower." (a t.demotions);
      counter "stale_epoch_rejections"
        "Requests fenced off with GTLX0013 (stale epoch)."
        (a t.stale_epoch_rejections);
      counter "primary_unreachable_ticks"
        "Follower maintenance ticks whose primary health probe went unanswered."
        (a t.primary_unreachable_ticks);
      unexported "primary_down_streak" (a t.primary_down_streak);
      gauge "follow_primary_up"
        "1 while the followed primary answers health probes (1 on a primary)."
        (match current_follow t with
        | None -> 1
        | Some _ -> if a t.primary_down_streak = 0 then 1 else 0);
      unexported "follow_timeout_ms"
        (int_of_float (t.cfg.follow_timeout *. 1000.0 +. 0.5));
    ]

let stats t = Serving.stats t.core (rows t) t.breaker

(* ------------------------------------------------------------------ *)
(* Prometheus-style text exposition.                                   *)

(* Prometheus renders +Inf / small floats with %g-style shortest form. *)
let metric_float f =
  if f = infinity then "+Inf" else Printf.sprintf "%g" f

let metrics_text t =
  let b = Buffer.create 4096 in
  Serving.metrics b t.core (rows t);
  List.iter
    (fun (name, v) ->
      Serving.metric b ~kind:"counter"
        ("galatex_engine_" ^ name ^ "_total")
        "Engine observability counter, summed over runs." v)
    (Obs.Metrics.snapshot t.engine_counters);
  Buffer.add_string b
    "# HELP galatex_query_duration_seconds Query latency by strategy key.\n\
     # TYPE galatex_query_duration_seconds histogram\n";
  List.iter
    (fun (key, h) ->
      List.iter
        (fun (le, n) ->
          Printf.bprintf b
            "galatex_query_duration_seconds_bucket{strategy=\"%s\",le=\"%s\"} %d\n"
            key (metric_float le) n)
        (Obs.Histogram.cumulative h);
      Printf.bprintf b "galatex_query_duration_seconds_sum{strategy=\"%s\"} %s\n"
        key
        (metric_float (Obs.Histogram.sum h));
      Printf.bprintf b
        "galatex_query_duration_seconds_count{strategy=\"%s\"} %d\n" key
        (Obs.Histogram.count h))
    t.histograms;
  Buffer.contents b

let slowlog_entries t = Obs.Ring.entries t.slowlog

(* ------------------------------------------------------------------ *)
(* Live updates: apply, then WAL append, then atomic engine swap.  All
   under [update_lock]; readers keep serving the old engine.            *)

let mirror_wal t =
  match t.writer with
  | Some w ->
      Atomic.set t.wal_records_now (Ftindex.Wal.wal_records w);
      Atomic.set t.wal_bytes_now (Ftindex.Wal.wal_bytes w)
  | None ->
      Atomic.set t.wal_records_now 0;
      Atomic.set t.wal_bytes_now 0

(* The open writer for the current engine generation (reopened after a
   reload or compaction moved the generation).  Call under update_lock. *)
let ensure_writer t =
  let gen = generation t in
  match t.writer with
  | Some w when Ftindex.Wal.writer_generation w = gen -> w
  | _ ->
      let w =
        Ftindex.Wal.open_writer ~io:(t.update_io_now ()) ~dir:t.cfg.index_dir
          ~generation:gen ()
      in
      t.writer <- Some w;
      w

(* The fence: a write-path request stamped with an epoch other than ours
   is refused with GTLX0013 — lower means the caller rode a superseded
   timeline (its acknowledgements would be lost bytes), higher means WE
   are the superseded party and must not acknowledge anything until
   demoted or re-promoted.  Epoch 0 marks an unfenced direct client. *)
let fence t ~what ~epoch =
  let own = Atomic.get t.epoch_now in
  if epoch = 0 || epoch = own then None
  else begin
    Atomic.incr t.stale_epoch_rejections;
    Log.warn (fun m ->
        m "fenced %s: request epoch %d, node epoch %d (gtlx:GTLX0013)" what
          epoch own);
    Some
      (Protocol.Failure
         (Protocol.error_of
            (Xquery.Errors.make Xquery.Errors.GTLX0013
               (Printf.sprintf
                  "stale epoch: %s carries epoch %d but this node is at epoch \
                   %d; re-discover the primary and retry there"
                  what epoch own))))
  end

let handle_update t ops =
  let failure exn =
    Atomic.incr t.update_errors;
    Protocol.Failure (Protocol.error_of (Xquery.Errors.wrap_exn exn))
  in
  let append w =
    List.fold_left
      (fun _ op -> (Ftindex.Wal.append w op).Ftindex.Wal.seq)
      (Ftindex.Wal.next_seq w - 1)
      ops
  in
  Serving.unless_draining t.core (fun () ->
    Mutex.protect t.update_lock (fun () ->
        (* the index is persistent, so applying first leaves the serving
           engine untouched, and a document that does not parse raises
           here, before anything reaches the log: the log stays replayable
           by construction *)
        match List.fold_left Galatex.Engine.apply_update (current_engine t) ops with
        | exception exn -> failure exn
        | engine' -> (
            match
              let w = ensure_writer t in
              (w, append w)
            with
            | exception exn ->
                (* a failure after a partial append leaves records in the
                   log that the serving engine has not applied; re-sync the
                   engine from the directory at the next maintenance tick so
                   memory and log never drift apart *)
                Atomic.set t.reload_flag true;
                mirror_wal t;
                failure exn
            | w, last_seq ->
                locked t (fun () -> t.engine <- engine');
                List.iter (fun _ -> Atomic.incr t.updates) ops;
                mirror_wal t;
                (match t.cfg.wal_compact_bytes with
                | Some limit when Ftindex.Wal.wal_bytes w >= limit ->
                    Atomic.set t.compact_flag true
                | Some _ | None -> ());
                Protocol.Update_reply
                  {
                    Protocol.u_generation = Ftindex.Wal.writer_generation w;
                    u_last_seq = last_seq;
                    u_records = Ftindex.Wal.wal_records w;
                    u_bytes = Ftindex.Wal.wal_bytes w;
                    u_epoch = Atomic.get t.epoch_now;
                  })))

(* Fold the log into a fresh snapshot generation.  On failure the directory
   may already carry the new manifest (making the live log stale), so the
   engine is re-synced from disk at the next tick — acknowledged updates
   are in the log or the new snapshot either way, never lost. *)
let do_compact t ~reason =
  Mutex.protect t.update_lock (fun () ->
      let engine = current_engine t in
      let folded =
        match t.writer with Some w -> Ftindex.Wal.wal_records w | None -> 0
      in
      match
        Galatex.Engine.compact ~io:(t.update_io_now ()) engine
          ~dir:t.cfg.index_dir
      with
      | exception exn ->
          Atomic.incr t.compaction_failures;
          Atomic.set t.reload_flag true;
          t.writer <- None;
          mirror_wal t;
          let e = Xquery.Errors.wrap_exn exn in
          Log.warn (fun m ->
              m "compaction (%s) failed: %s" reason (Xquery.Errors.to_string e));
          Error e
      | engine' ->
          locked t (fun () -> t.engine <- engine');
          t.writer <- None (* reopen on the new generation at next update *);
          mirror_wal t;
          refresh_manifest_crc t;
          Atomic.incr t.compactions;
          let gen = Option.value (Galatex.Engine.generation engine') ~default:0 in
          Log.info (fun m ->
              m "compaction (%s): folded %d record(s) into generation %d"
                reason folded gen);
          Ok (gen, folded))

let handle_compact t =
  Serving.unless_draining t.core (fun () ->
      match do_compact t ~reason:"requested" with
      | Ok (gen, folded) ->
          Protocol.Compact_reply { Protocol.c_generation = gen; c_folded = folded }
      | Error e -> Protocol.Failure (Protocol.error_of e))

(* ------------------------------------------------------------------ *)
(* Hot snapshot reload.  A corrupt new snapshot is rejected: the old
   engine keeps serving, with the failure logged and counted.  Serialized
   with updates and compactions via update_lock: a reload replays the
   write-ahead log, so live appends must not race it.  Runs in the ticker
   thread (SIGHUP / --watch) or synchronously in a worker (the Reload
   request — the rolling-reload gate).                                  *)

let do_reload t ~reason =
  Mutex.protect t.update_lock (fun () ->
      let io = (locked t (fun () -> t.reload_io_now)) () in
      match
        Galatex.Engine.of_store ~io ~sources:t.cfg.sources ~dir:t.cfg.index_dir
          ()
      with
      | exception Xquery.Errors.Error e ->
          Atomic.incr t.reload_failures;
          Log.warn (fun m ->
              m "reload (%s) failed, keeping generation %d: %s" reason
                (generation t) (Xquery.Errors.to_string e))
      | exception Ftindex.Store.Io.Crashed ->
          Atomic.incr t.reload_failures;
          Log.warn (fun m ->
              m "reload (%s) died on injected crash fault, keeping generation %d"
                reason (generation t))
      | fresh ->
          (match Galatex.Engine.salvage_report fresh with
          | Some r when not (Ftindex.Store.clean r) ->
              Atomic.incr t.salvage_events;
              Log.warn (fun m ->
                  m "reload salvaged a damaged snapshot: %s"
                    (Ftindex.Store.report_to_string r))
          | _ -> ());
          (* carry the engine-lifetime counters across the swap: a reload
             is maintenance, not a reset (regression-tested) *)
          locked t (fun () ->
              t.engine <- Galatex.Engine.share_counters ~from:t.engine fresh);
          (* the log may have moved with the generation: reopen lazily *)
          t.writer <- None;
          mirror_wal t;
          (match Ftindex.Wal.read_log ~dir:t.cfg.index_dir () with
          | Some log
            when log.Ftindex.Wal.base_generation = generation t ->
              Atomic.set t.wal_records_now
                (List.length log.Ftindex.Wal.records);
              Atomic.set t.wal_bytes_now log.Ftindex.Wal.valid_bytes
          | Some _ | None | (exception _) -> ());
          refresh_manifest_crc t;
          Atomic.incr t.reloads;
          Log.info (fun m ->
              m "reload (%s): now serving generation %d" reason (generation t)))

(* Liveness / generation probe: answered from atomics and one short-held
   lock — it never takes the update lock or touches the engine, so routers
   can poll it every tick without paying for a query. *)
let health t =
  {
    Protocol.h_generation = generation t;
    h_wal_records = Atomic.get t.wal_records_now;
    h_draining = Serving.draining t.core;
    (* sequence numbers are dense from 1, so the record count IS the last
       applied sequence number — no extra bookkeeping *)
    h_seq = Atomic.get t.wal_records_now;
    h_manifest_crc = Atomic.get t.manifest_crc_now;
    h_epoch = Atomic.get t.epoch_now;
    h_role = role t;
    h_endpoints = [];
  }

let handle_reload t =
  Serving.unless_draining t.core (fun () ->
      do_reload t ~reason:"requested over the wire";
      (* the reply is the gate: it proves this daemon finished the swap (or
         rejected a bad snapshot) and is serving again, and carries the
         generation so the caller can verify which one *)
      Protocol.Health_reply (health t))

(* ------------------------------------------------------------------ *)
(* Failover: Promote seals the log and durably bumps the epoch past
   everything the caller has seen (manifest first — a crash between the
   two leaves manifest ahead of log, which the next open_writer heals by
   sealing the log up); Demote flips a fenced old primary to follower.
   Both run under update_lock so no write can interleave with the flip. *)

let handle_promote t ~p_epoch =
  Serving.unless_draining t.core (fun () ->
    Mutex.protect t.update_lock (fun () ->
        let own = Atomic.get t.epoch_now in
        let was = role t in
        let new_epoch = max own p_epoch + 1 in
        match
          Ftindex.Store.bump_epoch ~dir:t.cfg.index_dir ~epoch:new_epoch ();
          Ftindex.Wal.seal ~dir:t.cfg.index_dir ~generation:(generation t)
            ~epoch:new_epoch ()
        with
        | exception exn ->
            Log.warn (fun m ->
                m "promotion to epoch %d failed: %s" new_epoch
                  (Xquery.Errors.to_string (Xquery.Errors.wrap_exn exn)));
            Protocol.Failure (Protocol.error_of (Xquery.Errors.wrap_exn exn))
        | () ->
            (* the new timeline is durable; only now flip the role *)
            t.writer <- None (* reopen on the sealed log at next update *);
            Atomic.set t.follow_now None;
            Atomic.set t.primary_gen_now 0;
            Atomic.set t.primary_seq_now 0;
            Atomic.set t.primary_down_streak 0;
            refresh_manifest_crc t;
            Atomic.incr t.promotions;
            Log.info (fun m ->
                m "promoted to primary at epoch %d (was %s at epoch %d)"
                  new_epoch was own);
            Protocol.Health_reply (health t)))

let handle_demote t ~d_epoch ~d_primary =
  let own = Atomic.get t.epoch_now in
  if d_epoch <= own then begin
    (* demotion must flow from a strictly newer timeline: otherwise any
       straggler could knock over the live primary *)
    Atomic.incr t.stale_epoch_rejections;
    Protocol.Failure
      (Protocol.error_of
         (Xquery.Errors.make Xquery.Errors.GTLX0013
            (Printf.sprintf
               "refusing demotion: claimed primary epoch %d does not exceed \
                this node's epoch %d"
               d_epoch own)))
  end
  else begin
    Mutex.protect t.update_lock (fun () ->
        Atomic.set t.follow_now (Some d_primary);
        t.writer <- None;
        Atomic.set t.primary_down_streak 0;
        Atomic.incr t.demotions;
        Log.warn (fun m ->
            m
              "fenced off by epoch %d primary at %s (gtlx:GTLX0013): demoting \
               to follower, re-syncing from it"
              d_epoch d_primary);
        Protocol.Health_reply (health t))
  end

(* ------------------------------------------------------------------ *)
(* Replication.  The primary side answers Fetch_wal (the acknowledged
   log tail, re-using the on-disk framing) and Fetch_snapshot (a
   CRC-verified base snapshot, file by file).  The follower side — a
   daemon started with [follow = Some primary_sock] — pulls on the
   maintenance ticker: WAL catch-up while the base generation matches,
   full snapshot re-sync when it no longer does (the primary compacted)
   or when the anti-entropy manifest-CRC comparison disagrees.          *)

let handle_fetch_wal t ~from_seq ~epoch =
  let own = Atomic.get t.epoch_now in
  if epoch > own then begin
    (* the caller has seen a newer timeline than ours: we are the stale
       party and must not ship records anyone might apply — the caller's
       next health probe of the real primary sorts it out *)
    Atomic.incr t.stale_epoch_rejections;
    Log.warn (fun m ->
        m
          "fenced fetch-wal: caller has seen epoch %d, this node is at epoch \
           %d (gtlx:GTLX0013)"
          epoch own);
    Protocol.Failure
      (Protocol.error_of
         (Xquery.Errors.make Xquery.Errors.GTLX0013
            (Printf.sprintf
               "stale timeline: this node is at epoch %d but the caller has \
                seen epoch %d; do not replicate from here"
               own epoch)))
  end
  else
    (* plain-I/O read of the acknowledged log: a torn tail racing a
       concurrent append is dropped by the scan, so only acknowledged,
       checksum-verified records ever ship *)
    match Ftindex.Wal.read_log ~dir:t.cfg.index_dir () with
  | None ->
      Protocol.Wal_reply
        { Protocol.w_generation = generation t; w_last_seq = 0; w_epoch = own;
          w_frames = "" }
  | Some log ->
      let last_seq =
        List.fold_left
          (fun acc r -> max acc r.Ftindex.Wal.seq)
          0 log.Ftindex.Wal.records
      in
      let fresh =
        List.filter
          (fun r -> r.Ftindex.Wal.seq > from_seq)
          log.Ftindex.Wal.records
      in
      (* ship a dense prefix that fits one reply frame; the follower
         fetches again from its new position for the rest *)
      let budget = Netio.max_frame - 4096 in
      let rec take size acc = function
        | [] -> List.rev acc
        | r :: rest ->
            let bytes = Ftindex.Wal.encode_records [ r ] in
            let size = size + String.length bytes in
            if size > budget && acc <> [] then List.rev acc
            else take size (bytes :: acc) rest
      in
      Protocol.Wal_reply
        {
          Protocol.w_generation = log.Ftindex.Wal.base_generation;
          w_last_seq = last_seq;
          w_epoch = log.Ftindex.Wal.base_epoch;
          w_frames = String.concat "" (take 0 [] fresh);
        }

let handle_fetch_snapshot t ~file =
  match Ftindex.Store.snapshot_files ~dir:t.cfg.index_dir with
  | None ->
      Protocol.Failure
        (Protocol.error_of
           (Xquery.Errors.make Xquery.Errors.GTLX0008
              "no readable snapshot to transfer"))
  | Some (gen, files) -> (
      let crc =
        Option.value ~default:0
          (Ftindex.Store.manifest_crc ~dir:t.cfg.index_dir)
      in
      match file with
      | None ->
          Protocol.Snapshot_reply
            { Protocol.sn_generation = gen; sn_manifest_crc = crc;
              sn_files = files; sn_data = None }
      | Some name
        when (not (List.mem name files)) || Filename.basename name <> name ->
          Protocol.Failure
            (Protocol.error_of
               (Xquery.Errors.make Xquery.Errors.FODC0002
                  (Printf.sprintf "not a file of snapshot generation %d: %s"
                     gen name)))
      | Some name -> (
          match
            Ftindex.Store.Io.read_file
              (Ftindex.Store.Io.real ())
              (Filename.concat t.cfg.index_dir name)
          with
          | data ->
              Protocol.Snapshot_reply
                { Protocol.sn_generation = gen; sn_manifest_crc = crc;
                  sn_files = files; sn_data = Some data }
          | exception (Sys_error _ | Unix.Unix_error (_, _, _)) ->
              (* a compaction's cleanup can unlink the file between the
                 listing and this read; the follower restarts the
                 transfer against the new generation *)
              Protocol.Failure
                (Protocol.error_of
                   (Xquery.Errors.make Xquery.Errors.FODC0002
                      (Printf.sprintf
                         "snapshot file %s vanished (concurrent compaction?)"
                         name)))))

(* Pull the primary's complete snapshot into [dir] — segments first,
   manifest last, each installed atomically — then reset the WAL to the
   new base generation.  Pure pull, no server state: the follower ticker
   and the empty-directory bootstrap in [start] share it. *)
let pull_snapshot ?(follow_timeout = 2.0) ~dir ~primary () =
  match
    Client.fetch_snapshot
      ~recv_timeout:(follow_timeout *. 15.0)
      ~socket_path:primary ()
  with
  | Error reason -> Error ("snapshot listing: " ^ reason)
  | Ok listing -> (
      let gen = listing.Protocol.sn_generation in
      let files = listing.Protocol.sn_files in
      if List.exists (fun n -> n = "" || Filename.basename n <> n) files then
        Error "primary listed a snapshot file outside its directory"
      else
        let manifest, segments =
          List.partition (fun n -> n = Ftindex.Store.manifest_name) files
        in
        let rec fetch = function
          | [] -> Ok ()
          | name :: rest -> (
              match
                Client.fetch_snapshot
                  ~recv_timeout:(follow_timeout *. 30.0)
                  ~socket_path:primary ~file:name ()
              with
              | Error reason -> Error (name ^ ": " ^ reason)
              | Ok reply when reply.Protocol.sn_generation <> gen ->
                  Error "primary moved to a new generation mid-transfer"
              | Ok { Protocol.sn_data = None; _ } ->
                  Error ("no data came back for " ^ name)
              | Ok { Protocol.sn_data = Some data; _ } -> (
                  match Ftindex.Store.install_file ~dir ~name data with
                  | () -> fetch rest
                  | exception Sys_error msg -> Error msg
                  | exception Unix.Unix_error (e, fn, _) ->
                      Error (fn ^ ": " ^ Unix.error_message e)))
        in
        match fetch (segments @ manifest) with
        | Error _ as e -> e
        | Ok () -> (
            (* segments of superseded generations are dead weight now *)
            (match Sys.readdir dir with
            | exception Sys_error _ -> ()
            | names ->
                Array.iter
                  (fun n ->
                    if
                      Filename.check_suffix n ".seg"
                      && not (List.mem n files)
                    then
                      try Sys.remove (Filename.concat dir n)
                      with Sys_error _ -> ())
                  names);
            match Ftindex.Wal.reset ~dir ~generation:gen () with
            | () -> Ok (gen, listing.Protocol.sn_manifest_crc)
            | exception Sys_error msg -> Error msg
            | exception Unix.Unix_error (e, fn, _) ->
                Error (fn ^ ": " ^ Unix.error_message e)))

(* Run a sync step under [update_lock] only if this node still follows
   [primary].  The ticker chose the step before taking the lock; a
   promotion or demotion that got the lock first has changed whom the
   node follows, and installing the old primary's state then would roll
   a promoted node back to its old epoch. *)
let while_following t primary f =
  Mutex.protect t.update_lock (fun () ->
      if current_follow t = Some primary then f ())

let snapshot_resync t ~primary ~reason =
  while_following t primary (fun () ->
      Log.info (fun m ->
          m "follow: snapshot re-sync from %s (%s)" primary reason);
      match
        pull_snapshot ~follow_timeout:t.cfg.follow_timeout ~dir:t.cfg.index_dir
          ~primary ()
      with
      | Error why ->
          Atomic.incr t.sync_failures;
          Log.warn (fun m -> m "follow: snapshot re-sync failed: %s" why)
      | Ok (gen, _crc) -> (
          t.writer <- None;
          match
            Galatex.Engine.of_store ~sources:t.cfg.sources
              ~dir:t.cfg.index_dir ()
          with
          | exception exn ->
              Atomic.incr t.sync_failures;
              Log.warn (fun m ->
                  m "follow: re-synced snapshot failed to load: %s"
                    (Xquery.Errors.to_string (Xquery.Errors.wrap_exn exn)))
          | fresh ->
              locked t (fun () ->
                  t.engine <- Galatex.Engine.share_counters ~from:t.engine fresh);
              mirror_wal t;
              refresh_manifest_crc t;
              Atomic.incr t.snapshot_resyncs;
              Log.info (fun m ->
                  m "follow: re-synced, now bit-identical at generation %d" gen)))

let catch_up_wal t ~primary =
  while_following t primary (fun () ->
      match
        let w = ensure_writer t in
        let applied = Ftindex.Wal.wal_records w in
        match
          Client.fetch_wal
            ~recv_timeout:(t.cfg.follow_timeout *. 5.0)
            ~socket_path:primary ~from_seq:applied
            ~epoch:(Atomic.get t.epoch_now) ()
        with
        | Error reason -> `Failed reason
        | Ok reply
          when reply.Protocol.w_generation
               <> Ftindex.Wal.writer_generation w ->
            (* the primary compacted under us; the next tick's health
               probe triggers the snapshot re-sync *)
            `Gen_moved
        | Ok reply ->
            let records =
              Ftindex.Wal.decode_records reply.Protocol.w_frames
            in
            let fresh = Ftindex.Wal.select_fresh ~applied records in
            if fresh = [] then `Applied 0
            else begin
              (* durable first, exactly like a primary update: append
                 every shipped record to our own log, then apply and swap
                 — so our log bytes replay to our served state across
                 kill -9 at any point *)
              List.iter
                (fun r -> ignore (Ftindex.Wal.append w r.Ftindex.Wal.op))
                fresh;
              let engine = current_engine t in
              let engine' =
                List.fold_left
                  (fun e r -> Galatex.Engine.apply_update e r.Ftindex.Wal.op)
                  engine fresh
              in
              locked t (fun () -> t.engine <- engine');
              mirror_wal t;
              `Applied (List.length fresh)
            end
      with
      | `Applied 0 -> ()
      | `Applied n ->
          Atomic.incr t.wal_syncs;
          ignore (Atomic.fetch_and_add t.wal_sync_records n);
          Log.debug (fun m -> m "follow: applied %d shipped record(s)" n)
      | `Gen_moved -> ()
      | `Failed reason ->
          Atomic.incr t.sync_failures;
          Log.debug (fun m -> m "follow: catch-up failed: %s" reason)
      | exception exn ->
          (* a structured GTLX0010 here means garbage or a gap on the
             wire; if our base really diverged, the anti-entropy CRC
             check forces the re-sync on a later tick *)
          Atomic.incr t.sync_failures;
          Log.warn (fun m ->
              m "follow: catch-up failed: %s"
                (Xquery.Errors.to_string (Xquery.Errors.wrap_exn exn))))

let follow_tick t ~primary =
  match
    Client.health ~recv_timeout:t.cfg.follow_timeout ~socket_path:primary ()
  with
  | Error reason ->
      (* primary unreachable: keep serving at the current position; the
         router's staleness bound decides if that is still acceptable *)
      Atomic.incr t.primary_unreachable_ticks;
      Atomic.incr t.primary_down_streak;
      Log.debug (fun m -> m "follow: primary %s unreachable: %s" primary reason)
  | Ok h ->
      Atomic.set t.primary_down_streak 0;
      Atomic.set t.primary_gen_now h.Protocol.h_generation;
      Atomic.set t.primary_seq_now h.Protocol.h_seq;
      let my_gen = generation t in
      if h.Protocol.h_generation <> my_gen then
        snapshot_resync t ~primary
          ~reason:
            (Printf.sprintf "base generation %d, primary at %d" my_gen
               h.Protocol.h_generation)
      else if h.Protocol.h_manifest_crc <> Atomic.get t.manifest_crc_now then begin
        Log.warn (fun m ->
            m
              "follow: anti-entropy: manifest CRC mismatch at generation %d \
               (mine %d, primary %d)"
              my_gen
              (Atomic.get t.manifest_crc_now)
              h.Protocol.h_manifest_crc);
        snapshot_resync t ~primary ~reason:"manifest CRC mismatch"
      end
      else if h.Protocol.h_seq > Atomic.get t.wal_records_now then
        catch_up_wal t ~primary

let handle t = function
  | Protocol.Stats -> Protocol.Stats_reply (stats t)
  | Protocol.Metrics -> Protocol.Metrics_reply (metrics_text t)
  | Protocol.Slowlog -> Protocol.Slowlog_reply (slowlog_entries t)
  | Protocol.Health -> Protocol.Health_reply (health t)
  | Protocol.Reload -> Serving.counting t.reload_failures (fun () -> handle_reload t)
  | Protocol.Update _ | Protocol.Compact _ when current_follow t <> None ->
      (* single-writer across the fleet: a follower's state is defined by
         its primary's log, never by direct writes *)
      Protocol.Failure
        (Protocol.error_of
           (Xquery.Errors.make Xquery.Errors.FODC0002
              "read-only replica: this daemon follows a primary; route \
               updates there"))
  | Protocol.Fetch_wal { from_seq; epoch } -> handle_fetch_wal t ~from_seq ~epoch
  | Protocol.Fetch_snapshot { file } -> handle_fetch_snapshot t ~file
  | Protocol.Promote { p_epoch } -> handle_promote t ~p_epoch
  | Protocol.Demote { d_epoch; d_primary } ->
      handle_demote t ~d_epoch ~d_primary
  | Protocol.Update { ops; epoch } -> (
      match fence t ~what:"update" ~epoch with
      | Some rejection -> rejection
      | None -> Serving.counting t.update_errors (fun () -> handle_update t ops))
  | Protocol.Compact { epoch } -> (
      match fence t ~what:"compact" ~epoch with
      | Some rejection -> rejection
      | None -> Serving.counting t.compaction_failures (fun () -> handle_compact t))
  | Protocol.Query q ->
      (* run_report's boundary guarantee means only structured errors
         escape eval_query; the core's wrap is defense in depth *)
      Serving.counting t.errors (fun () -> eval_query t q)

let maybe_reload t =
  if Atomic.exchange t.reload_flag false then do_reload t ~reason:"requested"
  else if t.cfg.watch_generation then
    match Ftindex.Store.current_generation ~dir:t.cfg.index_dir with
    | Some g when g <> generation t -> do_reload t ~reason:"generation change"
    | Some _ | None -> ()

let maybe_compact t =
  if Atomic.exchange t.compact_flag false then
    ignore (do_compact t ~reason:"wal threshold")

(* One pass of the maintenance ticker ({!Serving} runs it until the
   drain begins): an idle daemon (zero in-flight requests) still observes
   reload requests, new snapshot generations, and pending threshold
   compactions — none of it on the accept or request path. *)
let tick t =
  maybe_reload t;
  (* the role is runtime state (Promote / Demote flip it), so the ticker
     re-reads it every pass *)
  match current_follow t with
  | Some primary ->
      (* a follower never self-compacts: its generation may only advance
         by tracking the primary's *)
      follow_tick t ~primary
  | None -> maybe_compact t

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let start cfg =
  (match cfg.follow with
  | Some primary
    when Ftindex.Store.current_generation ~dir:cfg.index_dir = None -> (
      (* empty follower directory: bootstrap a base snapshot from the
         primary before anything serves *)
      Log.info (fun m -> m "bootstrapping from primary %s" primary);
      match
        pull_snapshot ~follow_timeout:cfg.follow_timeout ~dir:cfg.index_dir
          ~primary ()
      with
      | Ok (gen, _) ->
          Log.info (fun m -> m "bootstrap complete at generation %d" gen)
      | Error reason ->
          Xquery.Errors.raise_error Xquery.Errors.FODC0002
            "cannot bootstrap from primary %s: %s" primary reason)
  | Some _ | None -> ());
  let engine =
    Galatex.Engine.of_store ~sources:cfg.sources ~dir:cfg.index_dir ()
  in
  (* bound before the log is opened: a refused socket leaves the index
     directory untouched *)
  let { socket_path; workers; queue_limit; retry_after_ms; recv_timeout;
        idle_timeout; tick_interval; on_request; _ } = cfg in
  let core =
    Serving.create ~role:"server"
      { Serving.socket_path; workers; queue_limit; retry_after_ms;
        recv_timeout; idle_timeout; tick_interval; on_request }
  in
  let t =
    {
      cfg;
      core;
      lock = Mutex.create ();
      engine;
      reload_io_now = cfg.reload_io;
      reload_flag = Atomic.make false;
      compact_flag = Atomic.make false;
      update_lock = Mutex.create ();
      writer = None;
      update_io_now = cfg.update_io;
      breaker =
        Breaker.create ~threshold:cfg.breaker_threshold
          ~cooldown:cfg.breaker_cooldown;
      served = Atomic.make 0;
      errors = Atomic.make 0;
      breaker_bypassed = Atomic.make 0;
      reloads = Atomic.make 0;
      reload_failures = Atomic.make 0;
      salvage_events = Atomic.make 0;
      updates = Atomic.make 0;
      update_errors = Atomic.make 0;
      compactions = Atomic.make 0;
      compaction_failures = Atomic.make 0;
      wal_records_now = Atomic.make 0;
      wal_bytes_now = Atomic.make 0;
      manifest_crc_now = Atomic.make 0;
      primary_gen_now = Atomic.make 0;
      primary_seq_now = Atomic.make 0;
      wal_syncs = Atomic.make 0;
      wal_sync_records = Atomic.make 0;
      snapshot_resyncs = Atomic.make 0;
      sync_failures = Atomic.make 0;
      follow_now = Atomic.make cfg.follow;
      epoch_now = Atomic.make 1;
      primary_unreachable_ticks = Atomic.make 0;
      primary_down_streak = Atomic.make 0;
      stale_epoch_rejections = Atomic.make 0;
      promotions = Atomic.make 0;
      demotions = Atomic.make 0;
      queries = Atomic.make 0;
      engine_counters = Obs.Metrics.create ();
      histograms =
        List.map (fun key -> (key, Obs.Histogram.create ())) strategy_keys;
      slowlog = Obs.Ring.create ~capacity:(max 1 cfg.slowlog_capacity);
    }
  in
  (match Galatex.Engine.salvage_report engine with
  | Some r when not (Ftindex.Store.clean r) ->
      Atomic.incr t.salvage_events;
      Log.warn (fun m ->
          m "initial snapshot salvaged: %s" (Ftindex.Store.report_to_string r))
  | _ -> ());
  (match Galatex.Engine.wal_recovery engine with
  | Some r ->
      Log.info (fun m ->
          m "recovered %d update record(s) from the write-ahead log%s"
            r.Galatex.Engine.replayed
            (if r.Galatex.Engine.truncated_tail then " (torn tail dropped)"
             else ""))
  | None -> ());
  (* open the writer eagerly so startup fails loudly on an unwritable log
     directory, and the stats mirrors are exact from the first request *)
  (try
     Mutex.protect t.update_lock (fun () ->
         ignore (ensure_writer t);
         mirror_wal t)
   with exn ->
     Serving.release core;
     raise exn);
  refresh_manifest_crc t;
  Serving.start core ~handle:(handle t) ~tick:(fun () -> tick t);
  Log.info (fun m ->
      m "serving generation %d on %s (%d workers, queue %d)" (generation t)
        cfg.socket_path cfg.workers cfg.queue_limit);
  t

let request_reload t = Atomic.set t.reload_flag true
let request_shutdown t = Serving.request_shutdown t.core
let wait t = Serving.wait t.core
let stop t = Serving.stop t.core

let set_reload_io t io = locked t (fun () -> t.reload_io_now <- io)

let set_update_io t io =
  Mutex.protect t.update_lock (fun () ->
      t.update_io_now <- io;
      (* drop the open writer so the next update reopens with the new
         injector armed (tests aim faults at specific append ops) *)
      t.writer <- None)
