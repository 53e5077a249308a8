(* Client side of the daemon protocol (see client.mli). *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let default_io_timeout = 10.

let deadline_reason (e : Xquery.Errors.t) =
  Printf.sprintf "%s: %s" (Xquery.Errors.code_string e.code) e.message

(* An exchange is a send half and a receive half, so a caller can keep
   several requests in flight on one thread (the cluster router's scatter)
   while {!request} stays the one blocking round trip.  [recv_timeout]
   is an absolute budget for the {e whole} exchange — connect, request
   write, reply read — enforced by Netio, so a mute or slow-loris peer
   (hung daemon, half-dead shard, stalled transfer) surfaces as a
   ["gtlx:GTLX0014: ..."] transport error, never a hang.  A per-syscall
   [SO_RCVTIMEO] cannot give it: one byte per interval resets that clock
   forever. *)
type pending = {
  fd : Unix.file_descr;
  limits : Netio.limits;
  reader : Netio.frame_reader;
}

let send ?recv_timeout ~socket_path req =
  let limits =
    match recv_timeout with
    | Some s when s > 0. -> Netio.within s
    | Some _ | None -> Netio.no_limits
  in
  match Netio.connect ~limits socket_path with
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Xquery.Errors.Error e -> Error (deadline_reason e)
  | fd -> (
      match
        Netio.write_frame ~limits fd (Protocol.encode_request req);
        Unix.shutdown fd Unix.SHUTDOWN_SEND
      with
      | ()
      (* an admission-control shed answers before reading the request and
         closes; on a Unix socket the delivered reply stays readable, only
         our late send sees EPIPE — swallow it and read the reply *)
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN), _, _)
        ->
          Ok { fd; limits; reader = Netio.frame_reader () }
      | exception Xquery.Errors.Error e ->
          close_quietly fd;
          Error (deadline_reason e)
      | exception exn ->
          close_quietly fd;
          raise exn)

let fd p = p.fd
let deadline p = p.limits.Netio.deadline
let abandon p = close_quietly p.fd

(* Decode what [read] produces, then close the connection. *)
let finish p read =
  Fun.protect
    ~finally:(fun () -> close_quietly p.fd)
    (fun () ->
      match read () with
      | Ok data -> Protocol.decode_response data
      | Error reason -> Error reason
      | exception Xquery.Errors.Error e -> Error (deadline_reason e)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Error "receive timeout"
      | exception Unix.Unix_error (e, fn, _) ->
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))

let receive p =
  finish p (fun () -> Netio.read_frame ~limits:p.limits ~reader:p.reader p.fd)

let try_receive p =
  match Netio.read_frame_step ~limits:p.limits p.reader p.fd with
  | None -> None
  | Some read -> Some (finish p (fun () -> read))
  | exception exn -> Some (finish p (fun () -> raise exn))

let request ?recv_timeout ~socket_path req =
  Result.bind (send ?recv_timeout ~socket_path req) receive

let shed_reply = function
  | Protocol.Failure e when e.Protocol.code = "gtlx:GTLX0009" -> Some e
  | Protocol.Value _ | Protocol.Failure _ | Protocol.Stats_reply _
  | Protocol.Update_reply _ | Protocol.Compact_reply _
  | Protocol.Metrics_reply _ | Protocol.Slowlog_reply _
  | Protocol.Health_reply _ | Protocol.Wal_reply _ | Protocol.Snapshot_reply _
    ->
      None

let default_jitter bound = bound *. (0.5 +. Random.float 0.5)

(* Deterministic upper bound (seconds) on the wait before retry attempt
   [k]: exponential in the attempt number, never below [base_ms] (attempt
   1 waits the base itself), never above [cap_ms].  Pure — the qcheck
   property in test_server.ml exercises it directly. *)
let backoff_bound ~base_ms ~cap_ms ~attempt:k =
  let base_ms = max 1 base_ms in
  let cap_ms = max base_ms cap_ms in
  let doubled =
    (* shift without overflow: past the cap, stop growing *)
    if k - 1 >= 20 then cap_ms else min cap_ms (base_ms lsl (k - 1))
  in
  float_of_int (max base_ms doubled) /. 1000.

let query ~socket_path ?(retries = 0) ?(base_delay_ms = 25)
    ?(cap_delay_ms = 5000) ?(jitter = default_jitter) ?(sleep = Unix.sleepf)
    ?deadline q =
  (* [deadline] is an absolute [Unix.gettimeofday]-clock instant bounding
     the whole retry loop: every attempt advertises the remaining budget
     over the wire ([deadline_left]), backoff sleeps are capped to it, and
     when it runs out the last outcome is returned instead of retrying —
     retries spend the one original budget, they don't restart it. *)
  let remaining () =
    match deadline with
    | None -> infinity
    | Some d -> d -. Unix.gettimeofday ()
  in
  (* attempt [k] of [retries + 1]; [base_ms] tracks the daemon's hint *)
  let rec go k base_ms =
    let left = remaining () in
    let q =
      if left = infinity then q
      else { q with Protocol.deadline_left = Some (Float.max 0. left) }
    in
    let recv_timeout = if left = infinity then None else Some (left +. 1.) in
    let outcome = request ?recv_timeout ~socket_path (Protocol.Query q) in
    let retryable, base_ms =
      match outcome with
      | Ok reply -> (
          match shed_reply reply with
          | Some e ->
              (true, Option.value e.Protocol.retry_after_ms ~default:base_ms)
          | None -> (false, base_ms))
      | Error _ ->
          (* connect refused / socket missing / torn frame: the daemon may
             be restarting — same backoff loop as a shed *)
          (true, base_ms)
    in
    if (not retryable) || k > retries || remaining () <= 0. then outcome
    else begin
      let wait =
        Float.min
          (jitter (backoff_bound ~base_ms ~cap_ms:cap_delay_ms ~attempt:k))
          (Float.max 0. (remaining ()))
      in
      sleep wait;
      go (k + 1) base_ms
    end
  in
  go 1 base_delay_ms

(* One-shot commands default to a finite exchange deadline: [galatex
   stats --health], [promote], [demote] and friends must never hang
   forever against a stalled endpoint (they used to). *)

(* One typed exchange: [pick] selects the reply kind the request
   expects; a structured failure becomes ["CODE: message"]. *)
let expect what pick = function
  | Ok (Protocol.Failure e) ->
      Error (Printf.sprintf "%s: %s" e.Protocol.code e.Protocol.message)
  | Ok reply ->
      Option.to_result ~none:("unexpected response to " ^ what) (pick reply)
  | Error reason -> Error reason

let stats ?(recv_timeout = default_io_timeout) ~socket_path () =
  request ~recv_timeout ~socket_path Protocol.Stats
  |> expect "stats" (function Protocol.Stats_reply s -> Some s | _ -> None)

let metrics ?(recv_timeout = default_io_timeout) ~socket_path () =
  request ~recv_timeout ~socket_path Protocol.Metrics
  |> expect "metrics" (function Protocol.Metrics_reply m -> Some m | _ -> None)

let slowlog ?(recv_timeout = default_io_timeout) ~socket_path () =
  request ~recv_timeout ~socket_path Protocol.Slowlog
  |> expect "slowlog" (function Protocol.Slowlog_reply l -> Some l | _ -> None)

let health_request ~recv_timeout ~socket_path req what =
  request ~recv_timeout ~socket_path req
  |> expect what (function Protocol.Health_reply h -> Some h | _ -> None)

let health ?(recv_timeout = default_io_timeout) ~socket_path () =
  health_request ~recv_timeout ~socket_path Protocol.Health "health"

(* reload swaps a whole snapshot generation in synchronously; give it a
   proportionally longer default than the cheap probes *)
let reload ?(recv_timeout = 60.) ~socket_path () =
  health_request ~recv_timeout ~socket_path Protocol.Reload "reload"

let promote ?(recv_timeout = default_io_timeout) ~socket_path ~epoch () =
  health_request ~recv_timeout ~socket_path
    (Protocol.Promote { p_epoch = epoch })
    "promote"

let demote ?(recv_timeout = default_io_timeout) ~socket_path ~epoch ~primary () =
  health_request ~recv_timeout ~socket_path
    (Protocol.Demote { d_epoch = epoch; d_primary = primary })
    "demote"

let fetch_wal ?recv_timeout ~socket_path ~from_seq ?(epoch = 0) () =
  request ?recv_timeout ~socket_path (Protocol.Fetch_wal { from_seq; epoch })
  |> expect "fetch-wal" (function Protocol.Wal_reply w -> Some w | _ -> None)

let fetch_snapshot ?recv_timeout ~socket_path ?file () =
  request ?recv_timeout ~socket_path (Protocol.Fetch_snapshot { file })
  |> expect "fetch-snapshot" (function
       | Protocol.Snapshot_reply s -> Some s
       | _ -> None)
