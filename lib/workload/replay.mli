(** Open-loop trace replay through {!Galatex_server.Client}.

    Events launch at their trace due time regardless of completions, so
    a slow server cannot throttle its own arrival process; latency is
    measured from the {e due} instant, so delay spent queueing behind the
    in-flight cap is charged to the server, not silently dropped (no
    coordinated omission).  Works unchanged against a single daemon
    socket or the cluster router — they speak the same protocol. *)

type counts = { full : int; partial : int; shed : int; error : int }
(** Outcome classification: complete answers; partial cluster answers
    (GTLX0011-tagged values); overload sheds (GTLX0009); everything else
    — structured failures, transport errors, I/O deadline expiries. *)

type result = {
  issued : int;  (** events launched (= trace length) *)
  counts : counts;  (** full + partial + shed + error = issued *)
  latencies_sorted_ms : float array;
      (** one sample per issued event, sorted ascending *)
  wall_s : float;
}

val run :
  socket_path:string ->
  ?concurrency:int ->
  ?client_timeout:float ->
  ?events:(float * (unit -> unit)) list ->
  ?now:(unit -> float) ->
  ?sleep:(float -> unit) ->
  Trace.t ->
  result
(** Replay a trace against [socket_path].  [concurrency] caps in-flight
    requests (default 16; the launcher blocks for a slot but the wait
    still counts into that event's latency); [client_timeout] is the
    per-request whole-exchange budget (default 5 s, surfacing stalls as
    errors instead of hangs).

    [events] are timed actions owned by the caller — stop a shard, reload
    a router, anything that needs handles the trace cannot name.  Each
    [(at_ms, fire)] runs [fire] on its own thread once [at_ms] passes on
    the trace's clock (an action due at the same instant as a trace event
    starts first); [run] returns only after every action has finished.
    [now]/[sleep] are test hooks (defaults: [Unix.gettimeofday],
    [Thread.delay]) and pace the actions too.
    @raise Invalid_argument when [concurrency <= 0]. *)
