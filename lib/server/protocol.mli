(** The daemon's wire protocol: length-framed binary request/response
    pairs over a Unix-domain socket, one request per connection.

    Framing ({!Netio}): a 4-byte little-endian payload length, then the
    payload.
    Payloads carry a tag byte and length-prefixed fields.  Decoding is
    total — a torn, oversized or malformed frame comes back as [Error
    reason], never an exception — because the chaos tests tear client
    connections mid-frame and the daemon must shrug. *)

(** {1 Requests} *)

type merge = Merge_concat | Merge_sum | Merge_topk of int
(** How a cluster router combines per-shard answers (shard daemons ignore
    the field): concatenate in partition order, sum single numeric items
    (counts), or k-way merge score-tagged items by descending score. *)

type query_request = {
  query : string;  (** XQuery Full-Text source text *)
  strategy : Galatex.Engine.strategy;
  fallback : bool;  (** graceful degradation to the reference path *)
  context : string option;  (** document uri supplying the context node *)
  limits : Xquery.Limits.t;
      (** per-request resource budget; [None] fields inherit the server's
          defaults — each request gets a {e fresh} governor *)
  fault_at : int option;
      (** deterministic fault injection at eval step [n] of {e this}
          request's evaluation (chaos tests); a breaker-bypassed request
          runs clean *)
  deadline_left : float option;
      (** the caller's {e remaining} wall-clock budget (seconds) at send
          time.  The server clamps its effective timeout to it, so retries
          and scatter fan-out spend the one original budget instead of
          restarting it per hop *)
  merge : merge option;
      (** merge policy hint for a cluster router ([None] = router decides:
          top-level [count]/[sum] calls are summed, everything else
          concatenates in partition order) *)
}

type request =
  | Query of query_request
  | Stats
  | Update of { ops : Ftindex.Wal.op list; epoch : int }
      (** append the operations to the write-ahead log (durably, in order)
          and apply them to the serving engine; a batch is acknowledged as
          a whole.  [epoch] is the caller's fencing epoch: a node whose
          epoch differs rejects with [GTLX0013]; epoch 0 marks an unfenced
          direct client (accepted at any node epoch) *)
  | Compact of { epoch : int }
      (** fold the log into a fresh snapshot generation and reset it;
          [epoch] fences exactly as in [Update] *)
  | Metrics
      (** Prometheus-style text exposition of the daemon's counters,
          engine counters and latency histograms *)
  | Slowlog
      (** the ring buffer of recent queries slower than the configured
          threshold, newest first *)
  | Health
      (** lightweight liveness / generation probe: answered from atomics,
          never touches the engine or takes the update lock *)
  | Reload
      (** synchronous hot snapshot reload: the worker performs the reload
          (off the other workers' request path — readers keep the old
          engine until the atomic swap) and replies with a health snapshot
          of the post-reload state.  The rolling-reload gate. *)
  | Fetch_wal of { from_seq : int; epoch : int }
      (** replication: stream acknowledged WAL records with sequence
          numbers past [from_seq], re-using the on-disk record framing;
          answered with {!Wal_reply}.  [epoch] is the follower's idea of
          the primary's epoch (0 = unknown / don't fence): a node at a
          {e lower} epoch than the caller rejects with [GTLX0013] — the
          caller must not replicate from a superseded timeline *)
  | Fetch_snapshot of { file : string option }
      (** replication: [None] asks for the current snapshot's generation,
          manifest CRC and file listing; [Some name] transfers that file's
          raw bytes.  Answered with {!Snapshot_reply}. *)
  | Promote of { p_epoch : int }
      (** failover: seal the log, durably bump the fencing epoch to at
          least [p_epoch] (always past the node's own), and begin serving
          as primary.  Answered with {!Health_reply} showing the new role
          and epoch. *)
  | Demote of { d_epoch : int; d_primary : string }
      (** failover: step down and follow [d_primary], because a primary at
          [d_epoch] exists.  Rejected with [GTLX0013] when [d_epoch] is
          not beyond the node's own epoch.  Answered with {!Health_reply}. *)

val query_request : ?strategy:Galatex.Engine.strategy -> ?fallback:bool ->
  ?context:string -> ?limits:Xquery.Limits.t -> ?fault_at:int ->
  ?deadline_left:float -> ?merge:merge -> string -> query_request
(** Defaults: materialized strategy, fallback on, no explicit limits (the
    server's own defaults apply), no deadline propagation, router-decided
    merge.  The encoding keeps the byte of the retired optimize flag after
    the strategy tag: it is written as 0, and a 1 from an old client
    decodes and is ignored.  Strategy tag 2 (the retired pipelined
    strategy) does not decode: the request is malformed. *)

(** {1 Responses} *)

type partial_info = {
  missing : int list;  (** shard indices that never answered *)
  detail : string;  (** one human-readable reason per missing shard *)
}
(** Partial-result framing (code [gtlx:GTLX0011]): a cluster router that
    lost some partitions past retries answers with the shards that did
    reply and tags the reply with the missing partition indices instead of
    failing the whole query. *)

type query_reply = {
  items : string list;  (** result items, one display string each *)
  strategy_used : string;
  fell_back : bool;
  steps : int;  (** summed across shards on a merged cluster reply *)
  generation : int;
      (** snapshot generation that answered (0: in-memory); a merged
          cluster reply reports the {e minimum} across answering shards —
          the serving floor *)
  seq : int;
      (** WAL records applied on top of [generation] when the query ran; a
          merged cluster reply reports the minimum across answering shards.
          With [generation], the exact index state that answered. *)
  partial : partial_info option;  (** [None] = complete answer *)
}

type error_reply = {
  code : string;  (** e.g. ["gtlx:GTLX0009"] — the stable dispatch key *)
  error_class : string;  (** "static" | "dynamic" | "type" | "resource" | "internal" *)
  message : string;
  retry_after_ms : int option;  (** set on overload shedding *)
  queue_depth : int option;  (** set on overload shedding *)
}

type breaker_reply = {
  b_strategy : string;
  b_state : string;  (** "closed" | "open" | "half-open" *)
  b_consecutive : int;
  b_cooldown : int;
  b_trips : int;
}

type stats_reply = {
  counters : (string * int) list;
  breakers : breaker_reply list;
}

type update_reply = {
  u_generation : int;  (** base snapshot generation the log extends *)
  u_last_seq : int;  (** sequence number of the last appended record *)
  u_records : int;  (** records now in the write-ahead log *)
  u_bytes : int;  (** size of the log in bytes *)
  u_epoch : int;
      (** fencing epoch the write was acknowledged under — routers track
          it to notice a promotion they did not perform *)
}

type compact_reply = {
  c_generation : int;  (** the fresh snapshot generation *)
  c_folded : int;  (** log records folded into it *)
}

type slow_entry = {
  s_query : string;  (** query source text *)
  s_strategy : string;  (** strategy key, e.g. ["translated"] *)
  s_duration_ms : float;
  s_unix_time : float;  (** server clock when the query finished *)
  s_steps : int;  (** eval steps the run consumed *)
}

type endpoint_health = {
  e_path : string;  (** endpoint socket path *)
  e_shard : int;  (** partition the endpoint serves *)
  e_role : string;  (** ["primary"] or ["replica"] *)
  e_state : string;  (** breaker state: "closed" | "open" | "half-open" *)
  e_up : bool;  (** answered the probe *)
  e_generation : int;  (** 0 when down *)
  e_seq : int;  (** 0 when down *)
  e_epoch : int;  (** fencing epoch the endpoint reported; 0 when down *)
  e_lag : int option;
      (** records behind the shard's freshest known position; [None] when
          the endpoint is down or its base generation is behind (lag is
          only well-defined at a matched generation) *)
}
(** One row of a router health reply: why an endpoint is (or is not)
    being served from — breaker state plus replication freshness. *)

type health_reply = {
  h_generation : int;  (** snapshot generation now serving *)
  h_wal_records : int;  (** records in the write-ahead log *)
  h_draining : bool;  (** shutdown drain has begun *)
  h_seq : int;  (** last applied WAL sequence number *)
  h_manifest_crc : int;
      (** CRC-32 of the base snapshot manifest: the anti-entropy
          fingerprint a follower compares against its primary's *)
  h_epoch : int;
      (** fencing epoch of the node's manifest (0 on a router reply) *)
  h_role : string;  (** ["primary"], ["replica"], or ["router"] *)
  h_endpoints : endpoint_health list;  (** router replies only *)
}

type wal_reply = {
  w_generation : int;  (** base generation the shipped records extend *)
  w_last_seq : int;  (** primary's last acknowledged sequence number *)
  w_epoch : int;
      (** fencing epoch the shipped records belong to — a follower seeing
          it advance knows a promotion happened *)
  w_frames : string;
      (** shipped records, framed exactly as on disk (decode with
          {!Ftindex.Wal.decode_records}); may stop short of [w_last_seq]
          when the tail exceeds one frame — fetch again from the new
          position *)
}

type snapshot_reply = {
  sn_generation : int;  (** generation of the snapshot being transferred *)
  sn_manifest_crc : int;  (** CRC-32 of the raw manifest bytes *)
  sn_files : string list;  (** complete listing, manifest first *)
  sn_data : string option;
      (** [None] for a listing reply; [Some bytes] for a file transfer *)
}

type response =
  | Value of query_reply
  | Failure of error_reply
  | Stats_reply of stats_reply
  | Update_reply of update_reply
  | Compact_reply of compact_reply
  | Metrics_reply of string  (** Prometheus-style text exposition *)
  | Slowlog_reply of slow_entry list  (** newest first *)
  | Health_reply of health_reply
      (** answers [Health], [Reload], [Promote] and [Demote] *)
  | Wal_reply of wal_reply  (** answers [Fetch_wal] *)
  | Snapshot_reply of snapshot_reply  (** answers [Fetch_snapshot] *)

val error_of : ?retry_after_ms:int -> ?queue_depth:int -> Xquery.Errors.t -> error_reply
val exit_code_of_class : string -> int
(** The CLI's per-class exit codes (static 1, dynamic 2, type 3,
    resource 4, internal 5); unknown class strings map to 5. *)

(** {1 Codec} *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result
