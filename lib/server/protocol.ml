(* Wire protocol for the query daemon (see protocol.mli).

   Payloads are written with the shared byte codec ({!Ftindex.Codec}):
   a tag byte per variant, then its fields.  Decoding is total — any
   malformed byte sequence comes back as [Error reason]. *)

open Ftindex.Codec

(* ------------------------------------------------------------------ *)
(* Requests.                                                           *)

type merge = Merge_concat | Merge_sum | Merge_topk of int

type query_request = {
  query : string;
  strategy : Galatex.Engine.strategy;
  fallback : bool;
  context : string option;
  limits : Xquery.Limits.t;
  fault_at : int option;
  deadline_left : float option;
  merge : merge option;
}

type request =
  | Query of query_request
  | Stats
  | Update of { ops : Ftindex.Wal.op list; epoch : int }
  | Compact of { epoch : int }
  | Metrics
  | Slowlog
  | Health
  | Reload
  | Fetch_wal of { from_seq : int; epoch : int }
  | Fetch_snapshot of { file : string option }
  | Promote of { p_epoch : int }
  | Demote of { d_epoch : int; d_primary : string }

let query_request ?(strategy = Galatex.Engine.Native_materialized)
    ?(fallback = true) ?context
    ?(limits =
      { Xquery.Limits.max_steps = None; max_depth = None; max_matches = None;
        timeout = None }) ?fault_at ?deadline_left ?merge query =
  { query; strategy; fallback; context; limits; fault_at; deadline_left; merge }

let strategy_tag = function
  | Galatex.Engine.Translated -> 0
  | Galatex.Engine.Native_materialized -> 1
  | Galatex.Engine.Native_pipelined -> 2

let strategy_of_tag = function
  | 0 -> Galatex.Engine.Translated
  | 1 -> Galatex.Engine.Native_materialized
  | 2 -> Galatex.Engine.Native_pipelined
  | n -> malformed "unknown strategy tag %d" n

let put_op b (op : Ftindex.Wal.op) =
  match op with
  | Ftindex.Wal.Add_doc { uri; source } ->
      put_u8 b (Char.code 'A');
      put_str b uri;
      put_str b source
  | Ftindex.Wal.Remove_doc uri ->
      put_u8 b (Char.code 'R');
      put_str b uri

let get_op r : Ftindex.Wal.op =
  match Char.chr (get_u8 r) with
  | 'A' ->
      let uri = get_str r in
      let source = get_str r in
      Ftindex.Wal.Add_doc { uri; source }
  | 'R' -> Ftindex.Wal.Remove_doc (get_str r)
  | c -> malformed "unknown update op tag %C" c

let put_float b f = put_bits64 b (Int64.bits_of_float f)
let get_float r = Int64.float_of_bits (get_bits64 r)

let put_merge b = function
  | Merge_concat -> put_u8 b 0
  | Merge_sum -> put_u8 b 1
  | Merge_topk k ->
      put_u8 b 2;
      put_u32 b k

let get_merge r =
  match get_u8 r with
  | 0 -> Merge_concat
  | 1 -> Merge_sum
  | 2 -> Merge_topk (get_u32 r)
  | n -> malformed "unknown merge tag %d" n

let encode_request req =
  let b = Buffer.create 256 in
  (match req with
  | Stats -> put_u8 b (Char.code 'S')
  | Compact { epoch } ->
      put_u8 b (Char.code 'C');
      put_u32 b epoch
  | Metrics -> put_u8 b (Char.code 'M')
  | Slowlog -> put_u8 b (Char.code 'L')
  | Health -> put_u8 b (Char.code 'H')
  | Reload -> put_u8 b (Char.code 'R')
  | Update { ops; epoch } ->
      put_u8 b (Char.code 'U');
      put_u32 b epoch;
      put_list put_op b ops
  | Fetch_wal { from_seq; epoch } ->
      put_u8 b (Char.code 'W');
      put_u32 b from_seq;
      put_u32 b epoch
  | Fetch_snapshot { file } ->
      put_u8 b (Char.code 'F');
      put_opt put_str b file
  | Promote { p_epoch } ->
      put_u8 b (Char.code 'P');
      put_u32 b p_epoch
  | Demote { d_epoch; d_primary } ->
      put_u8 b (Char.code 'D');
      put_u32 b d_epoch;
      put_str b d_primary
  | Query q ->
      put_u8 b (Char.code 'Q');
      put_str b q.query;
      put_u8 b (strategy_tag q.strategy);
      (* the retired optimize flag: old daemons read it, so it stays *)
      put_bool b false;
      put_bool b q.fallback;
      put_opt put_str b q.context;
      put_opt put_u32 b q.limits.Xquery.Limits.max_steps;
      put_opt put_u32 b q.limits.Xquery.Limits.max_depth;
      put_opt put_u32 b q.limits.Xquery.Limits.max_matches;
      put_opt put_float b q.limits.Xquery.Limits.timeout;
      put_opt put_u32 b q.fault_at;
      put_opt put_float b q.deadline_left;
      put_opt put_merge b q.merge);
  Buffer.contents b

let decode_request data =
  try
    let r = reader data in
    let what, req =
      match Char.chr (get_u8 r) with
      | 'S' -> ("stats", Stats)
      | 'C' -> ("compact", Compact { epoch = get_u32 r })
      | 'M' -> ("metrics", Metrics)
      | 'L' -> ("slowlog", Slowlog)
      | 'H' -> ("health", Health)
      | 'R' -> ("reload", Reload)
      | 'U' ->
          let epoch = get_u32 r in
          let ops = get_list get_op r in
          ("update", Update { ops; epoch })
      | 'W' ->
          let from_seq = get_u32 r in
          let epoch = get_u32 r in
          ("fetch-wal", Fetch_wal { from_seq; epoch })
      | 'P' -> ("promote", Promote { p_epoch = get_u32 r })
      | 'D' ->
          let d_epoch = get_u32 r in
          let d_primary = get_str r in
          ("demote", Demote { d_epoch; d_primary })
      | 'F' -> ("fetch-snapshot", Fetch_snapshot { file = get_opt get_str r })
      | 'Q' ->
          let query = get_str r in
          let strategy = strategy_of_tag (get_u8 r) in
          (* the retired optimize flag: an old client's 1 is served plain *)
          ignore (get_bool r : bool);
          let fallback = get_bool r in
          let context = get_opt get_str r in
          let max_steps = get_opt get_u32 r in
          let max_depth = get_opt get_u32 r in
          let max_matches = get_opt get_u32 r in
          let timeout = get_opt get_float r in
          let fault_at = get_opt get_u32 r in
          let deadline_left = get_opt get_float r in
          let merge = get_opt get_merge r in
          let limits = { Xquery.Limits.max_steps; max_depth; max_matches; timeout } in
          ( "query",
            Query
              { query; strategy; fallback; context; limits; fault_at;
                deadline_left; merge } )
      | c -> malformed "unknown request tag %C" c
    in
    finish r (what ^ " request");
    Ok req
  with Malformed reason -> Error reason

(* ------------------------------------------------------------------ *)
(* Responses.                                                          *)

type partial_info = {
  missing : int list;  (** shard indices that never answered *)
  detail : string;  (** human-readable reason, per missing shard *)
}

type query_reply = {
  items : string list;
  strategy_used : string;
  fell_back : bool;
  steps : int;
  generation : int;
  seq : int;  (** WAL records applied on top of [generation] *)
  partial : partial_info option;
}

type error_reply = {
  code : string;
  error_class : string;
  message : string;
  retry_after_ms : int option;
  queue_depth : int option;
}

type breaker_reply = {
  b_strategy : string;
  b_state : string;
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
  u_epoch : int;  (** fencing epoch the write was acknowledged under *)
}

type compact_reply = {
  c_generation : int;  (** the fresh snapshot generation *)
  c_folded : int;  (** log records folded into it *)
}

type slow_entry = {
  s_query : string;
  s_strategy : string;
  s_duration_ms : float;
  s_unix_time : float;  (** server clock when the query finished *)
  s_steps : int;
}

type endpoint_health = {
  e_path : string;  (** endpoint socket path *)
  e_shard : int;  (** partition the endpoint serves *)
  e_role : string;  (** ["primary"] or ["replica"] *)
  e_state : string;  (** breaker state: closed / open / half-open *)
  e_up : bool;  (** answered the probe *)
  e_generation : int;  (** 0 when down *)
  e_seq : int;  (** 0 when down *)
  e_epoch : int;  (** fencing epoch the endpoint reported; 0 when down *)
  e_lag : int option;
      (** records behind the shard's freshest known position; [None] when
          down or when the endpoint's base generation is behind (lag is
          only well-defined at a matched generation) *)
}

type health_reply = {
  h_generation : int;  (** snapshot generation now serving *)
  h_wal_records : int;  (** records in the write-ahead log *)
  h_draining : bool;  (** shutdown drain has begun *)
  h_seq : int;  (** last applied WAL sequence number *)
  h_manifest_crc : int;  (** CRC-32 of the base snapshot manifest *)
  h_epoch : int;  (** fencing epoch of the node's manifest (0: router) *)
  h_role : string;  (** ["primary"], ["replica"], or ["router"] *)
  h_endpoints : endpoint_health list;
      (** router only: per-endpoint freshness and breaker state *)
}

type wal_reply = {
  w_generation : int;  (** base generation the shipped records extend *)
  w_last_seq : int;  (** primary's last acknowledged sequence number *)
  w_epoch : int;  (** fencing epoch the shipped records belong to *)
  w_frames : string;
      (** shipped records, framed exactly as on disk ({!Ftindex.Wal}
          record framing, no header record); may stop short of
          [w_last_seq] when the full tail exceeds one frame *)
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
  | Metrics_reply of string
  | Slowlog_reply of slow_entry list
  | Health_reply of health_reply
  | Wal_reply of wal_reply
  | Snapshot_reply of snapshot_reply

let error_of ?retry_after_ms ?queue_depth (e : Xquery.Errors.t) =
  {
    code = Xquery.Errors.code_string e.Xquery.Errors.code;
    error_class =
      Xquery.Errors.class_string
        (Xquery.Errors.class_of e.Xquery.Errors.code);
    message = e.Xquery.Errors.message;
    retry_after_ms;
    queue_depth;
  }

let exit_code_of_class = function
  | "static" -> 1
  | "dynamic" -> 2
  | "type" -> 3
  | "resource" -> 4
  | _ -> 5

let encode_response resp =
  let b = Buffer.create 512 in
  (match resp with
  | Value v ->
      put_u8 b (Char.code 'V');
      put_list put_str b v.items;
      put_str b v.strategy_used;
      put_bool b v.fell_back;
      put_u32 b v.steps;
      put_u32 b v.generation;
      put_u32 b v.seq;
      put_opt
        (fun b p ->
          put_list put_u32 b p.missing;
          put_str b p.detail)
        b v.partial
  | Failure e ->
      put_u8 b (Char.code 'E');
      put_str b e.code;
      put_str b e.error_class;
      put_str b e.message;
      put_opt put_u32 b e.retry_after_ms;
      put_opt put_u32 b e.queue_depth
  | Update_reply u ->
      put_u8 b (Char.code 'U');
      put_u32 b u.u_generation;
      put_u32 b u.u_last_seq;
      put_u32 b u.u_records;
      put_u32 b u.u_bytes;
      put_u32 b u.u_epoch
  | Compact_reply c ->
      put_u8 b (Char.code 'C');
      put_u32 b c.c_generation;
      put_u32 b c.c_folded
  | Metrics_reply text ->
      put_u8 b (Char.code 'M');
      put_str b text
  | Health_reply h ->
      put_u8 b (Char.code 'H');
      put_u32 b h.h_generation;
      put_u32 b h.h_wal_records;
      put_bool b h.h_draining;
      put_u32 b h.h_seq;
      put_u32 b h.h_manifest_crc;
      put_u32 b h.h_epoch;
      put_str b h.h_role;
      put_list
        (fun b e ->
          put_str b e.e_path;
          put_u32 b e.e_shard;
          put_str b e.e_role;
          put_str b e.e_state;
          put_bool b e.e_up;
          put_u32 b e.e_generation;
          put_u32 b e.e_seq;
          put_u32 b e.e_epoch;
          put_opt put_u32 b e.e_lag)
        b h.h_endpoints
  | Wal_reply w ->
      put_u8 b (Char.code 'W');
      put_u32 b w.w_generation;
      put_u32 b w.w_last_seq;
      put_u32 b w.w_epoch;
      put_str b w.w_frames
  | Snapshot_reply s ->
      put_u8 b (Char.code 'F');
      put_u32 b s.sn_generation;
      put_u32 b s.sn_manifest_crc;
      put_list put_str b s.sn_files;
      put_opt put_str b s.sn_data
  | Slowlog_reply entries ->
      put_u8 b (Char.code 'L');
      put_list
        (fun b e ->
          put_str b e.s_query;
          put_str b e.s_strategy;
          put_float b e.s_duration_ms;
          put_float b e.s_unix_time;
          put_u32 b e.s_steps)
        b entries
  | Stats_reply s ->
      put_u8 b (Char.code 'T');
      put_list
        (fun b (k, v) ->
          put_str b k;
          put_u32 b v)
        b s.counters;
      put_list
        (fun b br ->
          put_str b br.b_strategy;
          put_str b br.b_state;
          put_u32 b br.b_consecutive;
          put_u32 b br.b_cooldown;
          put_u32 b br.b_trips)
        b s.breakers);
  Buffer.contents b

let decode_response data =
  try
    let r = reader data in
    let what, resp =
      match Char.chr (get_u8 r) with
      | 'V' ->
          let items = get_list get_str r in
          let strategy_used = get_str r in
          let fell_back = get_bool r in
          let steps = get_u32 r in
          let generation = get_u32 r in
          let seq = get_u32 r in
          let partial =
            get_opt
              (fun r ->
                let missing = get_list get_u32 r in
                let detail = get_str r in
                { missing; detail })
              r
          in
          ( "value",
            Value { items; strategy_used; fell_back; steps; generation; seq; partial } )
      | 'E' ->
          let code = get_str r in
          let error_class = get_str r in
          let message = get_str r in
          let retry_after_ms = get_opt get_u32 r in
          let queue_depth = get_opt get_u32 r in
          ("error", Failure { code; error_class; message; retry_after_ms; queue_depth })
      | 'U' ->
          let u_generation = get_u32 r in
          let u_last_seq = get_u32 r in
          let u_records = get_u32 r in
          let u_bytes = get_u32 r in
          let u_epoch = get_u32 r in
          ( "update",
            Update_reply { u_generation; u_last_seq; u_records; u_bytes; u_epoch } )
      | 'C' ->
          let c_generation = get_u32 r in
          let c_folded = get_u32 r in
          ("compact", Compact_reply { c_generation; c_folded })
      | 'T' ->
          let counters =
            get_list
              (fun r ->
                let k = get_str r in
                let v = get_u32 r in
                (k, v))
              r
          in
          let breakers =
            get_list
              (fun r ->
                let b_strategy = get_str r in
                let b_state = get_str r in
                let b_consecutive = get_u32 r in
                let b_cooldown = get_u32 r in
                let b_trips = get_u32 r in
                { b_strategy; b_state; b_consecutive; b_cooldown; b_trips })
              r
          in
          ("stats", Stats_reply { counters; breakers })
      | 'M' -> ("metrics", Metrics_reply (get_str r))
      | 'H' ->
          let h_generation = get_u32 r in
          let h_wal_records = get_u32 r in
          let h_draining = get_bool r in
          let h_seq = get_u32 r in
          let h_manifest_crc = get_u32 r in
          let h_epoch = get_u32 r in
          let h_role = get_str r in
          let h_endpoints =
            get_list
              (fun r ->
                let e_path = get_str r in
                let e_shard = get_u32 r in
                let e_role = get_str r in
                let e_state = get_str r in
                let e_up = get_bool r in
                let e_generation = get_u32 r in
                let e_seq = get_u32 r in
                let e_epoch = get_u32 r in
                let e_lag = get_opt get_u32 r in
                { e_path; e_shard; e_role; e_state; e_up; e_generation; e_seq;
                  e_epoch; e_lag })
              r
          in
          ( "health",
            Health_reply
              { h_generation; h_wal_records; h_draining; h_seq; h_manifest_crc;
                h_epoch; h_role; h_endpoints } )
      | 'W' ->
          let w_generation = get_u32 r in
          let w_last_seq = get_u32 r in
          let w_epoch = get_u32 r in
          let w_frames = get_str r in
          ("wal", Wal_reply { w_generation; w_last_seq; w_epoch; w_frames })
      | 'F' ->
          let sn_generation = get_u32 r in
          let sn_manifest_crc = get_u32 r in
          let sn_files = get_list get_str r in
          let sn_data = get_opt get_str r in
          ( "snapshot",
            Snapshot_reply { sn_generation; sn_manifest_crc; sn_files; sn_data } )
      | 'L' ->
          let entries =
            get_list
              (fun r ->
                let s_query = get_str r in
                let s_strategy = get_str r in
                let s_duration_ms = get_float r in
                let s_unix_time = get_float r in
                let s_steps = get_u32 r in
                { s_query; s_strategy; s_duration_ms; s_unix_time; s_steps })
              r
          in
          ("slowlog", Slowlog_reply entries)
      | c -> malformed "unknown response tag %C" c
    in
    finish r (what ^ " response");
    Ok resp
  with Malformed reason -> Error reason
