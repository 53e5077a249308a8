(* The document-sharded cluster router (see router.mli for the contract).

   Connection handling — accept loop, admission queue, worker pool,
   maintenance ticker and drain — is the serving core the single daemon
   uses too (Galatex_server.Serving).  This module supplies its two parts:

     [handle]        one framed request to one response; a query scatters
                     to every shard from the worker that received it, one
                     [select] loop over the requests in flight, and
                     merges the answers before replying.
     [tick]          the maintenance pass: runs a requested rolling reload
                     (so a SIGHUP on an idle router still rolls the shards)
                     and the failover sweep.

   The router holds no engine and no locks around shard I/O: all cluster
   state is the breaker registry (thread-safe) and atomic counters, so a
   slow shard blocks only the workers waiting on it, never the router's
   own bookkeeping. *)

let src = Logs.Src.create "galatex.route" ~doc:"GalaTex cluster router"

module Log = (val Logs.src_log src : Logs.LOG)
module Protocol = Galatex_server.Protocol
module Client = Galatex_server.Client
module Breaker = Galatex_server.Breaker
module Serving = Galatex_server.Serving

type endpoint = { primary : string; replicas : string list }

type config = {
  socket_path : string;
  shards : endpoint list;
  workers : int;
  queue_limit : int;
  retries : int;
  max_lag : int option;
  primary_failover : bool;
  failover_ticks : int;
  default_deadline : float;
  breaker_threshold : int;
  breaker_cooldown : int;
  retry_after_ms : int;
  recv_timeout : float;
  idle_timeout : float;
  probe_timeout : float;
  reload_timeout : float;
  tick_interval : float;
  on_request : unit -> unit;
  jitter : float -> float;
  sleep : float -> unit;
}

let default_config ~shards ~socket_path =
  {
    socket_path;
    shards;
    workers = 4;
    queue_limit = 64;
    retries = 2;
    max_lag = None;
    primary_failover = false;
    failover_ticks = 3;
    default_deadline = 5.0;
    breaker_threshold = 3;
    breaker_cooldown = 8;
    retry_after_ms = 25;
    recv_timeout = 10.0;
    idle_timeout = 2.0;
    probe_timeout = 2.0;
    reload_timeout = 60.0;
    tick_interval = 0.05;
    on_request = ignore;
    jitter = (fun bound -> bound *. (0.5 +. Random.float 0.5));
    sleep = Unix.sleepf;
  }

type t = {
  cfg : config;
  shards : endpoint array;
  core : Serving.t;
  reload_flag : bool Atomic.t;
  breakers : Breaker.t;  (** keyed by endpoint socket path *)
  shard_up : int Atomic.t array;  (** 1 after last contact succeeded *)
  state_lock : Mutex.t;  (** guards [latest] and [ep_fresh] *)
  latest : (int * int) array;
      (** per shard: the freshest (generation, seq) the router has seen —
          from update acks, query replies and health probes.  The
          staleness yardstick for failover reads; kept even while the
          primary is down, which is exactly when it matters. *)
  ep_fresh : (string, int * int) Hashtbl.t;
      (** last (generation, seq) observed per endpoint, for lag gauges *)
  current_primary : string array;
      (** per shard: the endpoint hash-routed writes go to right now —
          starts at the configured primary, moves on failover / adoption.
          Guarded by [state_lock]. *)
  shard_epoch : int array;
      (** per shard: the highest fencing epoch observed anywhere (health
          probes, update acks, promote replies) — stamped onto every
          write so a superseded node fences it off.  Guarded by
          [state_lock]. *)
  primary_down_ticks : int array;
      (** per shard: consecutive ticker probes of the current primary
          that went unanswered (ticker thread only) *)
  (* counters *)
  served : int Atomic.t;  (** queries answered with a value, full or partial *)
  queries : int Atomic.t;
  partials : int Atomic.t;
  failed : int Atomic.t;
  shard_attempts : int Atomic.t;
  shard_errors : int Atomic.t;
  shard_bypassed : int Atomic.t;
  stale_skips : int Atomic.t;
  stale_served : int Atomic.t;
  updates : int Atomic.t;
  update_errors : int Atomic.t;
  compactions : int Atomic.t;
  reloads : int Atomic.t;
  reload_failures : int Atomic.t;
  failovers : int Atomic.t;
  failover_failures : int Atomic.t;
  demotes_sent : int Atomic.t;
  fenced_writes : int Atomic.t;  (** writes a shard refused with GTLX0013 *)
  mutable last_failover_sweep : float;
      (** ticker thread only: when the last failover probe sweep ran, so
          sweeps pace at the probe timescale, not every flag-poll tick *)
}

let partial_failure fmt =
  Format.kasprintf
    (fun msg ->
      Protocol.error_of (Xquery.Errors.make Xquery.Errors.GTLX0011 msg))
    fmt

let stale_failure fmt =
  Format.kasprintf
    (fun msg ->
      Protocol.error_of (Xquery.Errors.make Xquery.Errors.GTLX0012 msg))
    fmt

let now () = Unix.gettimeofday ()
let mark_up t i up = Atomic.set t.shard_up.(i) (if up then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Replication freshness.  Positions are ordered lexicographically:
   (g1,s1) <= (g2,s2) iff g1 < g2, or g1 = g2 and s1 <= s2 — a higher
   base generation supersedes any sequence number on an older one.      *)

let pos_leq (g1, s1) (g2, s2) = g1 < g2 || (g1 = g2 && s1 <= s2)

(* Monotone bump: freshness only ever advances, so a straggling reply
   from a lagging replica can never walk the yardstick backwards. *)
let note_freshness t i path pos =
  Mutex.protect t.state_lock (fun () ->
      if pos_leq t.latest.(i) pos then t.latest.(i) <- pos;
      Hashtbl.replace t.ep_fresh path pos)

let shard_latest t i = Mutex.protect t.state_lock (fun () -> t.latest.(i))

let endpoint_pos t path =
  Mutex.protect t.state_lock (fun () -> Hashtbl.find_opt t.ep_fresh path)

(* The current write primary of shard [i] — runtime state, not config. *)
let shard_primary t i =
  Mutex.protect t.state_lock (fun () -> t.current_primary.(i))

let shard_epoch_now t i = Mutex.protect t.state_lock (fun () -> t.shard_epoch.(i))

(* Monotone, like freshness: an epoch observation never walks back. *)
let note_epoch t i e =
  Mutex.protect t.state_lock (fun () ->
      if e > t.shard_epoch.(i) then t.shard_epoch.(i) <- e)

let set_primary t i path epoch =
  Mutex.protect t.state_lock (fun () ->
      t.current_primary.(i) <- path;
      if epoch > t.shard_epoch.(i) then t.shard_epoch.(i) <- epoch)

(* Records behind the freshest known position; [None] = not comparable
   (the endpoint's base generation is behind — infinitely stale). *)
let lag_of ~latest:(lg, ls) (g, s) =
  if g < lg then None else if g > lg then Some 0 else Some (max 0 (ls - s))

(* Probe every endpoint of shard [i] (current primary first, so its
   position is noted before replica lags are judged against it), noting
   freshness and fencing epochs as they come back. *)
let probe_endpoints t i =
  let ep = t.shards.(i) in
  let cur = shard_primary t i in
  let ordered =
    cur :: List.filter (fun p -> p <> cur) (ep.primary :: ep.replicas)
  in
  List.map
    (fun path ->
      let role = if path = cur then "primary" else "replica" in
      let r =
        Client.health ~recv_timeout:t.cfg.probe_timeout ~socket_path:path ()
      in
      (match r with
      | Ok h ->
          note_freshness t i path (h.Protocol.h_generation, h.Protocol.h_seq);
          note_epoch t i h.Protocol.h_epoch
      | Error _ -> ());
      (path, role, r))
    ordered

(* Adopt the highest-epoch node that itself claims to be primary, when
   its epoch matches everything the router has seen — how the router
   notices promotions it did not perform (a manual [galatex promote],
   another router's failover).  A claimant below the known epoch is a
   stale old primary and is never adopted. *)
let adopt_primary t i probes =
  let best =
    List.fold_left
      (fun acc (path, _role, r) ->
        match r with
        | Ok h when h.Protocol.h_role = "primary" -> (
            match acc with
            | Some (_, e) when e >= h.Protocol.h_epoch -> acc
            | Some _ | None -> Some (path, h.Protocol.h_epoch))
        | Ok _ | Error _ -> acc)
      None probes
  in
  match best with
  | None -> ()
  | Some (path, e) ->
      Mutex.lock t.state_lock;
      let adopt = e >= t.shard_epoch.(i) && t.current_primary.(i) <> path in
      let old = t.current_primary.(i) in
      if adopt then begin
        t.current_primary.(i) <- path;
        if e > t.shard_epoch.(i) then t.shard_epoch.(i) <- e
      end;
      Mutex.unlock t.state_lock;
      if adopt then
        Log.warn (fun m ->
            m "partition %d: adopting %s as primary at epoch %d (was %s)" i
              path e old)

let refresh_shard_view t i = adopt_primary t i (probe_endpoints t i)

let describe_lag = function
  | None -> "base generation behind"
  | Some l -> Printf.sprintf "lag %d" l

(* ------------------------------------------------------------------ *)
(* Scatter: per shard, primary then replicas, breaker-gated, within the
   query's remaining deadline; all shards at once, in one loop.         *)

type missing_info = {
  reason : string;
  stale : bool;
      (** true when a live replica answered but was skipped for exceeding
          the staleness bound — the [GTLX0012] case, distinct from a
          plainly down partition *)
}

type shard_outcome =
  | Answered of Protocol.query_reply
  | Authoritative of Protocol.error_reply
      (** a static / dynamic / type error: the query's own failure, not
          the shard's — the shard is healthy and the error propagates *)
  | Missing of missing_info

(* One shard's scatter: a cursor over its endpoints — the current primary
   first, then the others — walked once per sweep, for up to [1 + retries]
   sweeps with a backoff between them.  At most one attempt is in flight;
   [advance] starts the next one and [settle] classifies its reply. *)
type scan = {
  shard : int;
  eps : string array;
  mutable sweep : int;  (** 1-based *)
  mutable cursor : int;  (** next endpoint of this sweep; 0 = not begun *)
  mutable primary : string;  (** the shard's primary when the sweep began *)
  mutable admitted : bool;  (** some endpoint of this sweep was tried *)
  mutable last : string;  (** why the latest endpoint did not answer *)
  mutable stale : bool;  (** a live replica was skipped as too stale *)
  mutable resume_at : float;  (** backoff: begin no sweep before this instant *)
  mutable flight : (string * Client.pending) option;
  mutable outcome : shard_outcome option;
}

let scan_of t i =
  let ep = t.shards.(i) in
  let cur = shard_primary t i in
  {
    shard = i;
    (* current primary first: reads prefer the node taking the writes *)
    eps =
      Array.of_list
        (cur :: List.filter (fun p -> p <> cur) (ep.primary :: ep.replicas));
    sweep = 1;
    cursor = 0;
    primary = cur;
    admitted = false;
    last = "unasked";
    stale = false;
    resume_at = 0.;
    flight = None;
    outcome = None;
  }

let finish t s outcome =
  s.outcome <- Some outcome;
  mark_up t s.shard
    (match outcome with
    | Answered _ | Authoritative _ -> true
    | Missing _ -> false)

(* Classify one endpoint's reply.  An answer, or a query error, ends the
   shard's scatter; anything else leaves the cursor to move on. *)
let settle t s path reply =
  let i = s.shard in
  let fail reason =
    Breaker.record t.breakers path ~ok:false;
    Atomic.incr t.shard_errors;
    s.last <- Printf.sprintf "%s: %s" path reason
  in
  match reply with
  | Ok (Protocol.Value v) -> (
      Breaker.record t.breakers path ~ok:true;
      let pos = (v.Protocol.generation, v.Protocol.seq) in
      note_freshness t i path pos;
      if path = s.primary then finish t s (Answered v)
      else
        (* failover read from a replica: gate on the staleness bound
           against the freshest position this router has ever seen for the
           shard — which still works when the primary itself is the thing
           that just died *)
        let lag = lag_of ~latest:(shard_latest t i) pos in
        match t.cfg.max_lag with
        | Some bound when match lag with None -> true | Some l -> l > bound ->
            (* healthy endpoint, just too far behind: skip it like a down
               one, but don't punish its breaker *)
            Atomic.incr t.stale_skips;
            s.stale <- true;
            s.last <-
              Printf.sprintf "%s: replica too stale (%s, bound %d)" path
                (describe_lag lag) bound
        | Some _ -> finish t s (Answered v)
        | None ->
            (match lag with
            | Some 0 -> ()
            | _ ->
                Atomic.incr t.stale_served;
                Log.warn (fun m ->
                    m
                      "serving replica %s of partition %d unbounded (%s); set \
                       --max-lag to gate failover freshness"
                      path i (describe_lag lag)));
            finish t s (Answered v))
  | Ok (Protocol.Failure e) -> (
      match e.Protocol.error_class with
      | "static" | "dynamic" | "type" ->
          (* the shard did its job; the query is at fault *)
          Breaker.record t.breakers path ~ok:true;
          finish t s (Authoritative e)
      | _ ->
          (* resource (shed, budget) or internal: the shard could not
             serve — fail over *)
          fail (Printf.sprintf "%s: %s" e.Protocol.code e.Protocol.message))
  | Ok
      ( Protocol.Stats_reply _ | Protocol.Update_reply _
      | Protocol.Compact_reply _ | Protocol.Metrics_reply _
      | Protocol.Slowlog_reply _ | Protocol.Health_reply _
      | Protocol.Wal_reply _ | Protocol.Snapshot_reply _ ) ->
      fail "unexpected response"
  | Error reason -> fail reason

(* Move shard [s] forward until it has an attempt in flight, an outcome,
   or a backoff to wait out.  Endpoints the breakers bypass are skipped
   without paying their timeout; a sweep whose endpoints were all
   bypassed declares the shard down at once instead of waiting out the
   budget. *)
let rec advance t ~deadline q s =
  let max_sweeps = 1 + max 0 t.cfg.retries in
  if Option.is_some s.outcome || Option.is_some s.flight || now () < s.resume_at
  then ()
  else if s.cursor = 0 && (s.sweep > max_sweeps || deadline -. now () <= 0.) then
    finish t s (Missing { reason = s.last; stale = s.stale })
  else begin
    if s.cursor = 0 then begin
      s.primary <- shard_primary t s.shard;
      s.admitted <- false
    end;
    if s.cursor < Array.length s.eps then begin
      let path = s.eps.(s.cursor) in
      s.cursor <- s.cursor + 1;
      let left = deadline -. now () in
      (if left <= 0. then s.last <- "deadline exhausted"
       else
         match Breaker.route t.breakers path with
         | Breaker.Bypass -> Atomic.incr t.shard_bypassed
         | Breaker.Run | Breaker.Probe -> (
             s.admitted <- true;
             Atomic.incr t.shard_attempts;
             let q = { q with Protocol.deadline_left = Some left } in
             match
               Client.send ~recv_timeout:(left +. 0.5) ~socket_path:path
                 (Protocol.Query q)
             with
             | Ok pending -> s.flight <- Some (path, pending)
             | Error reason -> settle t s path (Error reason)));
      advance t ~deadline q s
    end
    else if not s.admitted then
      finish t s
        (Missing { reason = "all endpoints breaker-open"; stale = s.stale })
    else begin
      let left = deadline -. now () in
      if s.sweep < max_sweeps && left > 0. then
        s.resume_at <-
          now ()
          +. Float.min
               (t.cfg.jitter
                  (Client.backoff_bound ~base_ms:t.cfg.retry_after_ms
                     ~cap_ms:1000 ~attempt:s.sweep))
               left;
      s.sweep <- s.sweep + 1;
      s.cursor <- 0;
      advance t ~deadline q s
    end
  end

(* Every shard's sweep advances together in the calling worker: start
   each shard's next attempt, wait in one [select] for a reply, the
   earliest reply deadline or the earliest backoff instant, classify what
   arrived, repeat until every shard has an outcome.  Each attempt carries
   the query's remaining budget and is cut off half a second after it, so
   the whole scatter spends the caller's one deadline. *)
let scatter t ~deadline q =
  let scans = Array.init (Array.length t.shards) (scan_of t) in
  let guarded s f =
    try f ()
    with exn ->
      finish t s (Missing { reason = Printexc.to_string exn; stale = false })
  in
  let advance_all () =
    Array.iter (fun s -> guarded s (fun () -> advance t ~deadline q s)) scans
  in
  let receive s ((path, pending) as flight) =
    (* off the scan while it is read: a read that raises has closed it *)
    s.flight <- None;
    match Client.try_receive pending with
    | None -> s.flight <- Some flight
    | Some reply -> settle t s path reply
  in
  (* the instant a scan needs attention without a reply: its attempt's
     deadline, or the end of its backoff *)
  let due s =
    match s.flight with
    | Some (_, p) -> Option.value (Client.deadline p) ~default:infinity
    | None -> s.resume_at
  in
  let rec loop () =
    match
      List.filter (fun s -> Option.is_none s.outcome) (Array.to_list scans)
    with
    | [] -> ()
    | open_scans ->
        let wake =
          List.fold_left (fun acc s -> Float.min acc (due s)) infinity open_scans
        in
        let fds =
          List.filter_map
            (fun s -> Option.map (fun (_, p) -> Client.fd p) s.flight)
            open_scans
        in
        let ready =
          match Unix.select fds [] [] (Float.max 0. (wake -. now ())) with
          | ready, _, _ -> ready
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        let t_now = now () in
        List.iter
          (fun s ->
            match s.flight with
            | Some ((_, p) as flight)
              when List.mem (Client.fd p) ready || due s <= t_now ->
                guarded s (fun () -> receive s flight)
            | Some _ | None -> ())
          open_scans;
        advance_all ();
        loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun s -> Option.iter (fun (_, p) -> Client.abandon p) s.flight)
        scans)
    (fun () ->
      advance_all ();
      loop ());
  Array.map (fun s -> Option.get s.outcome) scans

(* ------------------------------------------------------------------ *)
(* Gather: merge per-shard outcomes into one reply.                     *)

let scatter_query t q =
  Atomic.incr t.queries;
  let n = Array.length t.shards in
  let budget =
    match q.Protocol.deadline_left with
    | Some d -> d
    | None -> (
        match q.Protocol.limits.Xquery.Limits.timeout with
        | Some tmo -> tmo
        | None -> t.cfg.default_deadline)
  in
  let outcomes = scatter t ~deadline:(now () +. budget) q in
  (* a structured query error from any healthy shard is authoritative:
     the same query would fail the same way on every partition *)
  let authoritative =
    Array.fold_left
      (fun acc o ->
        match (acc, o) with
        | None, Authoritative e -> Some e
        | acc, _ -> acc)
      None outcomes
  in
  match authoritative with
  | Some e -> Protocol.Failure e
  | None -> (
      let answered = ref [] and missing = ref [] in
      Array.iteri
        (fun i o ->
          match o with
          | Answered v -> answered := (i, v) :: !answered
          | Missing m -> missing := (i, m) :: !missing
          | Authoritative _ -> ())
        outcomes;
      let answered = List.rev !answered and missing = List.rev !missing in
      let describe (i, m) = Printf.sprintf "partition %d: %s" i m.reason in
      match answered with
      | [] ->
          Atomic.incr t.failed;
          if List.exists (fun (_, (m : missing_info)) -> m.stale) missing then
            (* some partition had a live replica we refused to serve: the
               caller's bound, not an outage — distinct code, same exit
               class, so callers can loosen --max-lag deliberately *)
            Protocol.Failure
              (stale_failure
                 "no sufficiently fresh endpoint (--max-lag %d): %s"
                 (Option.value t.cfg.max_lag ~default:0)
                 (String.concat "; " (List.map describe missing)))
          else
            Protocol.Failure
              (partial_failure "no partition answered (%d of %d down): %s" n n
                 (String.concat "; " (List.map describe missing)))
      | (_, first) :: _ ->
          let policy =
            match q.Protocol.merge with
            | Some m -> m
            | None -> Merge.classify q.Protocol.query
          in
          let items =
            Merge.items policy
              (List.map (fun (i, v) -> (i, v.Protocol.items)) answered)
          in
          let steps =
            List.fold_left (fun acc (_, v) -> acc + v.Protocol.steps) 0 answered
          in
          let generation =
            List.fold_left
              (fun acc (_, v) -> min acc v.Protocol.generation)
              max_int answered
          in
          let seq =
            List.fold_left
              (fun acc (_, v) -> min acc v.Protocol.seq)
              max_int answered
          in
          let fell_back =
            List.exists (fun (_, v) -> v.Protocol.fell_back) answered
          in
          let partial =
            match missing with
            | [] -> None
            | l ->
                Atomic.incr t.partials;
                Some
                  {
                    Protocol.missing = List.map fst l;
                    detail = String.concat "; " (List.map describe l);
                  }
          in
          Atomic.incr t.served;
          Protocol.Value
            {
              Protocol.items;
              strategy_used = first.Protocol.strategy_used;
              fell_back;
              steps;
              generation;
              seq;
              partial;
            })

(* ------------------------------------------------------------------ *)
(* Updates: route each operation to the shard that owns its document.
   Single-writer semantics: a shard's writes go to its primary only —
   replicas serve failover reads, never router writes.                  *)

let uri_of_op = function
  | Ftindex.Wal.Add_doc { uri; _ } -> uri
  | Ftindex.Wal.Remove_doc uri -> uri

(* A bounded-retry unicast for control-plane requests (updates, compact):
   transport failures and sheds back off and retry within [budget]. *)
let request_primary t ~budget ~socket_path req =
  let deadline = now () +. budget in
  let rec go attempt =
    let left = deadline -. now () in
    if left <= 0. then Error "deadline exhausted"
    else
      let outcome =
        try Client.request ~recv_timeout:(left +. 0.5) ~socket_path req
        with exn -> Error (Printexc.to_string exn)
      in
      let retryable =
        match outcome with
        | Ok reply -> Option.is_some (Client.shed_reply reply)
        | Error _ -> true
      in
      if (not retryable) || attempt > max 0 t.cfg.retries then outcome
      else begin
        t.cfg.sleep
          (Float.min
             (t.cfg.jitter
                (Client.backoff_bound ~base_ms:t.cfg.retry_after_ms
                   ~cap_ms:1000 ~attempt))
             (Float.max 0. (deadline -. now ())));
        go (attempt + 1)
      end
  in
  go 1

let route_update t ops =
  Atomic.incr t.updates;
  let n = Array.length t.shards in
  let groups = Array.make n [] in
  List.iter
    (fun op ->
      let i = Corpus.Partition.shard_of_uri ~shards:n (uri_of_op op) in
      groups.(i) <- op :: groups.(i))
    ops;
  let merged =
    ref
      {
        Protocol.u_generation = 0;
        u_last_seq = 0;
        u_records = 0;
        u_bytes = 0;
        u_epoch = 0;
      }
  in
  let applied = ref [] in
  let failure = ref None in
  for i = 0 to n - 1 do
    match (List.rev groups.(i), !failure) with
    | [], _ | _, Some _ -> ()
    | batch, None -> (
        let primary = shard_primary t i in
        match
          request_primary t ~budget:t.cfg.default_deadline
            ~socket_path:primary
            (Protocol.Update { ops = batch; epoch = shard_epoch_now t i })
        with
        | Ok (Protocol.Update_reply u) ->
            mark_up t i true;
            note_freshness t i primary
              (u.Protocol.u_generation, u.Protocol.u_last_seq);
            note_epoch t i u.Protocol.u_epoch;
            applied := i :: !applied;
            merged :=
              {
                Protocol.u_generation =
                  max !merged.Protocol.u_generation u.Protocol.u_generation;
                u_last_seq = max !merged.Protocol.u_last_seq u.Protocol.u_last_seq;
                u_records = !merged.Protocol.u_records + u.Protocol.u_records;
                u_bytes = !merged.Protocol.u_bytes + u.Protocol.u_bytes;
                u_epoch = max !merged.Protocol.u_epoch u.Protocol.u_epoch;
              }
        | Ok (Protocol.Failure e) ->
            Atomic.incr t.update_errors;
            if e.Protocol.code = "gtlx:GTLX0013" then begin
              (* the shard fenced us off: someone else moved the timeline.
                 Re-learn the shard's epoch and primary before the caller
                 retries — the refreshed view makes the retry land right. *)
              Atomic.incr t.fenced_writes;
              Log.warn (fun m ->
                  m
                    "partition %d fenced an update (%s); re-discovering its \
                     primary and epoch"
                    i e.Protocol.message);
              refresh_shard_view t i
            end;
            failure :=
              Some
                {
                  e with
                  Protocol.message =
                    Printf.sprintf "partition %d: %s" i e.Protocol.message;
                }
        | Ok _ ->
            Atomic.incr t.update_errors;
            failure :=
              Some (partial_failure "partition %d: unexpected response" i)
        | Error reason ->
            Atomic.incr t.update_errors;
            mark_up t i false;
            let applied_note =
              match List.rev !applied with
              | [] -> ""
              | l ->
                  Printf.sprintf " (already applied to partition(s) %s)"
                    (String.concat ", " (List.map string_of_int l))
            in
            failure :=
              Some
                (partial_failure "update lost partition %d: %s%s" i reason
                   applied_note))
  done;
  match !failure with
  | Some e -> Protocol.Failure e
  | None -> Protocol.Update_reply !merged

let route_compact t =
  Atomic.incr t.compactions;
  let n = Array.length t.shards in
  let merged = ref { Protocol.c_generation = 0; c_folded = 0 } in
  let failure = ref None in
  for i = 0 to n - 1 do
    if Option.is_none !failure then begin
      let primary = shard_primary t i in
      match
        request_primary t ~budget:t.cfg.reload_timeout ~socket_path:primary
          (Protocol.Compact { epoch = shard_epoch_now t i })
      with
      | Ok (Protocol.Compact_reply c) ->
          mark_up t i true;
          note_freshness t i primary (c.Protocol.c_generation, 0);
          merged :=
            {
              Protocol.c_generation =
                max !merged.Protocol.c_generation c.Protocol.c_generation;
              c_folded = !merged.Protocol.c_folded + c.Protocol.c_folded;
            }
      | Ok (Protocol.Failure e) ->
          if e.Protocol.code = "gtlx:GTLX0013" then begin
            Atomic.incr t.fenced_writes;
            Log.warn (fun m ->
                m
                  "partition %d fenced a compaction (%s); re-discovering its \
                   primary and epoch"
                  i e.Protocol.message);
            refresh_shard_view t i
          end;
          failure :=
            Some
              {
                e with
                Protocol.message =
                  Printf.sprintf "partition %d: %s" i e.Protocol.message;
              }
      | Ok _ -> failure := Some (partial_failure "partition %d: unexpected response" i)
      | Error reason ->
          mark_up t i false;
          failure :=
            Some (partial_failure "partition %d unreachable for compaction: %s" i reason)
    end
  done;
  match !failure with
  | Some e -> Protocol.Failure e
  | None -> Protocol.Compact_reply !merged

(* ------------------------------------------------------------------ *)
(* Health and rolling reload.                                           *)

let breaker_state t path =
  match
    List.find_opt
      (fun s -> s.Breaker.strategy = path)
      (Breaker.snapshots t.breakers)
  with
  | Some s -> s.Breaker.state
  | None -> "closed"  (* never routed yet *)

let endpoint_row t i (path, role, r) =
  match r with
  | Ok h ->
      {
        Protocol.e_path = path;
        e_shard = i;
        e_role = role;
        e_state = breaker_state t path;
        e_up = true;
        e_generation = h.Protocol.h_generation;
        e_seq = h.Protocol.h_seq;
        e_epoch = h.Protocol.h_epoch;
        e_lag =
          lag_of ~latest:(shard_latest t i)
            (h.Protocol.h_generation, h.Protocol.h_seq);
      }
  | Error _ ->
      {
        Protocol.e_path = path;
        e_shard = i;
        e_role = role;
        e_state = breaker_state t path;
        e_up = false;
        e_generation = 0;
        e_seq = 0;
        e_epoch = 0;
        e_lag = None;
      }

let merge_health ~own_draining healths =
  List.fold_left
    (fun acc h ->
      {
        acc with
        Protocol.h_generation =
          min acc.Protocol.h_generation h.Protocol.h_generation;
        h_wal_records = acc.Protocol.h_wal_records + h.Protocol.h_wal_records;
        h_draining = acc.Protocol.h_draining || h.Protocol.h_draining;
        h_seq = min acc.Protocol.h_seq h.Protocol.h_seq;
        h_epoch = max acc.Protocol.h_epoch h.Protocol.h_epoch;
      })
    {
      Protocol.h_generation = max_int;
      h_wal_records = 0;
      h_draining = own_draining;
      h_seq = max_int;
      h_manifest_crc = 0;
      h_epoch = 0;
      h_role = "router";
      h_endpoints = [];
    }
    healths

let cluster_health t =
  let n = Array.length t.shards in
  let per_shard = List.init n (fun i -> (i, probe_endpoints t i)) in
  let rows =
    List.concat_map
      (fun (i, eps) -> List.map (endpoint_row t i) eps)
      per_shard
  in
  let shard_healths =
    List.filter_map
      (fun (i, eps) ->
        let answers =
          List.filter_map (fun (_, _, r) -> Result.to_option r) eps
        in
        mark_up t i (answers <> []);
        (* primary listed first, so its health represents the shard when
           it is up; otherwise the freshest-answering replica stands in *)
        match answers with [] -> None | h :: _ -> Some h)
      per_shard
  in
  match shard_healths with
  | [] ->
      Error (partial_failure "no partition answered the health probe (%d down)" n)
  | healths ->
      let merged =
        merge_health ~own_draining:(Serving.draining t.core) healths
      in
      Ok { merged with Protocol.h_endpoints = rows }

(* ------------------------------------------------------------------ *)
(* Primary failover (--primary-failover): the ticker probes every shard,
   adopts promotions it did not perform, fences reappeared old primaries,
   and after [failover_ticks] consecutive dead probes of the current
   primary promotes the freshest eligible follower.                      *)

(* Any endpoint other than the current primary that still claims the
   primary role at an epoch below the shard's is a reappeared old
   primary on a dead timeline: tell it where the live timeline is so it
   steps down and re-syncs. *)
let demote_stale t i probes =
  let cur = shard_primary t i in
  let epoch = shard_epoch_now t i in
  List.iter
    (fun (path, _role, r) ->
      match r with
      | Ok h
        when path <> cur
             && h.Protocol.h_role = "primary"
             && h.Protocol.h_epoch < epoch -> (
          match
            Client.demote ~recv_timeout:t.cfg.probe_timeout ~socket_path:path
              ~epoch ~primary:cur ()
          with
          | Ok _ ->
              Atomic.incr t.demotes_sent;
              Log.warn (fun m ->
                  m
                    "partition %d: fenced stale primary %s (epoch %d < %d); \
                     it demotes and re-syncs from %s"
                    i path h.Protocol.h_epoch epoch cur)
          | Error reason ->
              Log.warn (fun m ->
                  m "partition %d: could not demote stale primary %s: %s" i
                    path reason))
      | Ok _ | Error _ -> ())
    probes

(* A promotion candidate: answering, not draining, and within --max-lag
   of the freshest position this router has ever seen for the shard —
   the same yardstick failover reads use, which still works when the
   dead primary is the node that set it. *)
let eligible t i (path, _role, r) =
  match r with
  | Error _ -> None
  | Ok h ->
      if h.Protocol.h_draining then None
      else
        let pos = (h.Protocol.h_generation, h.Protocol.h_seq) in
        let lag = lag_of ~latest:(shard_latest t i) pos in
        let fresh_enough =
          match t.cfg.max_lag with
          | None -> true
          | Some bound -> (
              match lag with None -> false | Some l -> l <= bound)
        in
        if fresh_enough then Some (path, h) else None

let attempt_failover t i probes =
  let dead = shard_primary t i in
  (* freshest timeline wins: max (epoch, generation, seq), so a follower
     already on a newer epoch is never undercut by a longer log on an
     older one *)
  let best =
    List.fold_left
      (fun acc (path, h) ->
        let key =
          (h.Protocol.h_epoch, h.Protocol.h_generation, h.Protocol.h_seq)
        in
        match acc with
        | Some (_, k) when k >= key -> acc
        | Some _ | None -> Some ((path, h), key))
      None
      (List.filter_map (eligible t i) probes)
  in
  match best with
  | None ->
      Atomic.incr t.failover_failures;
      Log.err (fun m ->
          m
            "partition %d: primary %s is down and no follower is eligible \
             (unreachable, draining, or beyond --max-lag %s): writes stay \
             parked until one catches up"
            i dead
            (match t.cfg.max_lag with
            | None -> "unset"
            | Some l -> string_of_int l))
  | Some ((path, _), _) -> (
      match
        Client.promote ~recv_timeout:t.cfg.reload_timeout ~socket_path:path
          ~epoch:(shard_epoch_now t i) ()
      with
      | Ok h ->
          Atomic.incr t.failovers;
          set_primary t i path h.Protocol.h_epoch;
          note_freshness t i path (h.Protocol.h_generation, h.Protocol.h_seq);
          Log.warn (fun m ->
              m
                "partition %d: failed over %s -> %s at epoch %d (generation \
                 %d, seq %d)"
                i dead path h.Protocol.h_epoch h.Protocol.h_generation
                h.Protocol.h_seq)
      | Error reason ->
          Atomic.incr t.failover_failures;
          Log.err (fun m ->
              m "partition %d: promoting %s failed: %s" i path reason))

(* One ticker sweep of the failover state machine (ticker thread only —
   [primary_down_ticks] is unshared). *)
let failover_tick t =
  Array.iteri
    (fun i _ ->
      let probes = probe_endpoints t i in
      adopt_primary t i probes;
      demote_stale t i probes;
      let cur = shard_primary t i in
      let cur_up =
        List.exists (fun (path, _, r) -> path = cur && Result.is_ok r) probes
      in
      if cur_up then t.primary_down_ticks.(i) <- 0
      else begin
        t.primary_down_ticks.(i) <- t.primary_down_ticks.(i) + 1;
        if t.primary_down_ticks.(i) >= max 1 t.cfg.failover_ticks then begin
          t.primary_down_ticks.(i) <- 0;
          attempt_failover t i
            (List.filter (fun (path, _, _) -> path <> cur) probes)
        end
      end)
    t.shards

let rolling_reload t =
  (* one shard at a time, in partition order; the synchronous Reload
     reply from shard i's primary is the gate for shard i+1 — it proves
     the previous shard finished its swap and is serving again, so N-1
     shards always hold the fort *)
  let n = Array.length t.shards in
  let healths = ref [] in
  let failure = ref None in
  for i = 0 to n - 1 do
    if Option.is_none !failure then begin
      let ep = t.shards.(i) in
      (match
         Client.reload ~recv_timeout:t.cfg.reload_timeout
           ~socket_path:ep.primary ()
       with
      | Ok h ->
          mark_up t i true;
          note_freshness t i ep.primary
            (h.Protocol.h_generation, h.Protocol.h_seq);
          healths := h :: !healths;
          Log.info (fun m ->
              m "rolling reload: partition %d now serving generation %d" i
                h.Protocol.h_generation)
      | Error reason ->
          mark_up t i false;
          Atomic.incr t.reload_failures;
          failure :=
            Some
              (partial_failure
                 "rolling reload stopped at partition %d: %s (partitions \
                  0..%d reloaded, the rest keep their old generation)"
                 i reason (i - 1)));
      if Option.is_none !failure then
        (* replicas reload after their primary; a replica that fails only
           costs failover freshness, never the roll *)
        List.iter
          (fun path ->
            match
              Client.reload ~recv_timeout:t.cfg.reload_timeout
                ~socket_path:path ()
            with
            | Ok _ -> ()
            | Error reason ->
                Atomic.incr t.reload_failures;
                Log.warn (fun m ->
                    m "rolling reload: replica %s of partition %d failed: %s"
                      path i reason))
          ep.replicas
    end
  done;
  match !failure with
  | Some e -> Error e
  | None ->
      Atomic.incr t.reloads;
      Ok (merge_health ~own_draining:(Serving.draining t.core) !healths)

(* ------------------------------------------------------------------ *)
(* Stats and metrics.                                                   *)

(* The router's counter table; the serving core's rows follow it. *)
let rows t =
  let a = Atomic.get in
  Serving.
    [
      counter "route_queries" "Queries routed." (a t.queries);
      counter "route_partial" "Queries answered without some partitions."
        (a t.partials);
      counter "route_failed" "Routed queries no partition answered." (a t.failed);
      counter "served" "Queries answered with a value." (a t.served);
      counter "shard_attempts" "Requests sent to shard endpoints."
        (a t.shard_attempts);
      counter "shard_errors" "Shard requests that failed." (a t.shard_errors);
      counter "shard_bypassed" "Endpoints skipped by an open breaker."
        (a t.shard_bypassed);
      counter "stale_skips" "Replicas skipped as beyond the lag bound."
        (a t.stale_skips);
      counter "stale_served" "Answers served by a lagging replica."
        (a t.stale_served);
      counter "breaker_trips" "Circuit-breaker trips."
        (Breaker.trips_total t.breakers);
      counter "updates" "Update requests routed." (a t.updates);
      counter "update_errors" "Failed update requests." (a t.update_errors);
      counter "compactions" "Compaction requests routed." (a t.compactions);
      counter "reloads" "Rolling reloads completed." (a t.reloads);
      counter "reload_failures" "Endpoints that failed a rolling reload."
        (a t.reload_failures);
      counter "failovers" "Replicas promoted by failover." (a t.failovers);
      counter "failover_failures" "Failed failover attempts."
        (a t.failover_failures);
      counter "demotes_sent" "Old primaries demoted after a failover."
        (a t.demotes_sent);
      counter "fenced_writes" "Writes refused with a stale epoch."
        (a t.fenced_writes);
      gauge "primary_failover" "1 when automatic primary failover is armed."
        (if t.cfg.primary_failover then 1 else 0);
      gauge "workers" "Worker threads." t.cfg.workers;
      gauge "shards" "Partitions routed over." (Array.length t.shards);
    ]

let stats t = Serving.stats t.core (rows t) t.breakers

let metrics_text t =
  let b = Buffer.create 1024 in
  Serving.metrics b t.core (rows t);
  Buffer.add_string b "# TYPE galatex_route_shard_epoch gauge\n";
  Array.iteri
    (fun i _ ->
      Printf.bprintf b "galatex_route_shard_epoch{shard=\"%d\"} %d\n" i
        (shard_epoch_now t i))
    t.shards;
  Buffer.add_string b "# TYPE galatex_route_shard_up gauge\n";
  Array.iteri
    (fun i up ->
      Printf.bprintf b "galatex_route_shard_up{shard=\"%d\"} %d\n" i
        (Atomic.get up))
    t.shard_up;
  (* replica lag against the shard's freshest known position, from the
     last contact with each replica; -1 = base generation behind *)
  Buffer.add_string b "# TYPE galatex_route_replica_lag gauge\n";
  Array.iteri
    (fun i ep ->
      List.iter
        (fun path ->
          match endpoint_pos t path with
          | None -> ()
          | Some pos ->
              let lag =
                match lag_of ~latest:(shard_latest t i) pos with
                | None -> -1
                | Some l -> l
              in
              Buffer.add_string b
                (Printf.sprintf
                   "galatex_route_replica_lag{shard=\"%d\",endpoint=\"%s\"} \
                    %d\n"
                   i path lag))
        ep.replicas)
    t.shards;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Per-connection dispatch.                                             *)

let handle t = function
  | Protocol.Stats -> Protocol.Stats_reply (stats t)
  | Protocol.Metrics -> Protocol.Metrics_reply (metrics_text t)
  | Protocol.Slowlog ->
      (* the shards keep the slow logs; the router has none *)
      Protocol.Slowlog_reply []
  | Protocol.Health -> (
      match cluster_health t with
      | Ok h -> Protocol.Health_reply h
      | Error e -> Protocol.Failure e)
  | Protocol.Reload ->
      Serving.unless_draining t.core (fun () ->
          match rolling_reload t with
          | Ok h -> Protocol.Health_reply h
          | Error e -> Protocol.Failure e)
  | Protocol.Update { ops; epoch = _ } ->
      (* the router stamps its own observed epoch on each shard's batch; a
         direct client's epoch (usually 0) is not forwarded *)
      Serving.counting t.update_errors (fun () -> route_update t ops)
  | Protocol.Compact _ -> route_compact t
  | Protocol.Promote _ | Protocol.Demote _ ->
      Protocol.Failure
        (Protocol.error_of
           (Xquery.Errors.make Xquery.Errors.FODC0002
              "promote/demote are addressed to a shard daemon's socket, not \
               the router: use `galatex promote SOCK` or --primary-failover"))
  | Protocol.Fetch_wal _ | Protocol.Fetch_snapshot _ ->
      (* replication pulls are point-to-point follower↔primary traffic; a
         router has no log or snapshot to ship *)
      Protocol.Failure
        (Protocol.error_of
           (Xquery.Errors.make Xquery.Errors.FODC0002
              "replication fetches are served by shard daemons, not the \
               router: point the follower at its primary's socket"))
  | Protocol.Query q -> Serving.counting t.failed (fun () -> scatter_query t q)

(* One pass of the maintenance ticker ({!Serving} runs it until the drain
   begins). *)
let tick t =
  (if Atomic.exchange t.reload_flag false then
     match rolling_reload t with
     | Ok h ->
         Log.info (fun m ->
             m "rolling reload complete: serving floor generation %d"
               h.Protocol.h_generation)
     | Error e ->
         Log.err (fun m -> m "rolling reload failed: %s" e.Protocol.message));
  (* failover sweeps probe every endpoint, so they pace at the probe
     timescale rather than the (much faster) flag-poll tick *)
  let sweep_every = Float.max t.cfg.tick_interval (t.cfg.probe_timeout /. 4.) in
  if
    t.cfg.primary_failover
    && now () -. t.last_failover_sweep >= sweep_every
  then begin
    t.last_failover_sweep <- now ();
    failover_tick t
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                           *)

let start (cfg : config) =
  if cfg.shards = [] then invalid_arg "Router.start: no shards";
  let { socket_path; workers; queue_limit; retry_after_ms; recv_timeout;
        idle_timeout; tick_interval; on_request; _ } = cfg in
  let core =
    Serving.create ~role:"router"
      { Serving.socket_path; workers; queue_limit; retry_after_ms;
        recv_timeout; idle_timeout; tick_interval; on_request }
  in
  let t =
    {
      cfg;
      shards = Array.of_list cfg.shards;
      core;
      reload_flag = Atomic.make false;
      breakers =
        Breaker.create ~threshold:cfg.breaker_threshold
          ~cooldown:cfg.breaker_cooldown;
      shard_up =
        Array.init (List.length cfg.shards) (fun _ -> Atomic.make 1);
      state_lock = Mutex.create ();
      latest = Array.make (List.length cfg.shards) (0, 0);
      ep_fresh = Hashtbl.create 16;
      current_primary =
        Array.of_list
          (List.map (fun (e : endpoint) -> e.primary) cfg.shards);
      shard_epoch = Array.make (List.length cfg.shards) 0;
      primary_down_ticks = Array.make (List.length cfg.shards) 0;
      served = Atomic.make 0;
      queries = Atomic.make 0;
      partials = Atomic.make 0;
      failed = Atomic.make 0;
      shard_attempts = Atomic.make 0;
      shard_errors = Atomic.make 0;
      shard_bypassed = Atomic.make 0;
      stale_skips = Atomic.make 0;
      stale_served = Atomic.make 0;
      updates = Atomic.make 0;
      update_errors = Atomic.make 0;
      compactions = Atomic.make 0;
      reloads = Atomic.make 0;
      reload_failures = Atomic.make 0;
      failovers = Atomic.make 0;
      failover_failures = Atomic.make 0;
      demotes_sent = Atomic.make 0;
      fenced_writes = Atomic.make 0;
      last_failover_sweep = 0.;
    }
  in
  Serving.start core ~handle:(handle t) ~tick:(fun () -> tick t);
  Log.info (fun m ->
      m "routing %d partition(s) on %s (%d workers, queue %d)"
        (Array.length t.shards) cfg.socket_path cfg.workers cfg.queue_limit);
  t

let request_reload t = Atomic.set t.reload_flag true
let request_shutdown t = Serving.request_shutdown t.core
let wait t = Serving.wait t.core
let stop t = Serving.stop t.core
