(** Deterministic, seeded network fault injection.

    A faultnet proxy sits between a client and a Unix-domain server
    socket and forwards bytes in both directions through a per-connection
    {!plan} of scheduled faults: added latency, byte-rate throttling
    (slow-loris in either direction), stall-after-N-bytes, abrupt drop,
    half-close, and connection blackhole (accept-then-hang).  Plans are
    chosen by a pure function of the connection index, so a seeded
    schedule replays identically — the network analogue of the
    [Store.Io] single-shot disk fault injector.

    Chaos tests and the CI network-chaos drill wrap each link of a
    topology (client↔server, router↔shard, follower↔primary) in a proxy
    and assert the serving stack's deadline invariants hold under every
    schedule. *)

type plan = {
  latency : float;  (** seconds to sleep before forwarding each chunk *)
  rate : int option;
      (** ceiling in bytes/second (throttle; emulates a slow peer) *)
  stall_after : int option;
      (** forward this many bytes, then stop forwarding silently while
          keeping the connection open (the slow-loris / gray-failure
          case deadlines exist for) *)
  close_after : int option;
      (** forward this many bytes, then drop both directions abruptly *)
  half_close_after : int option;
      (** forward this many bytes, then shut down only this direction *)
  blackhole : bool;
      (** accept the connection but never forward a byte either way *)
}

val clean : plan
(** Transparent forwarding: no faults. *)

val stalled : ?after:int -> unit -> plan
(** Forward [after] bytes (default 0) then stall silently. *)

val throttled : int -> plan
(** Forward at most [bytes_per_second]. *)

val delayed : float -> plan
(** Add fixed latency per forwarded chunk. *)

val dropping : ?after:int -> unit -> plan
(** Forward [after] bytes (default 0) then sever the connection. *)

type t

val start :
  listen:string -> target:string -> plan_for:(int -> plan * plan) -> t
(** [start ~listen ~target ~plan_for] listens on the Unix socket path
    [listen]; each accepted connection [i] (0-based) is proxied to
    [target] under [plan_for i] = (client→server plan, server→client
    plan).  [plan_for] must be pure for deterministic replay.
    @raise Xquery.Errors.Error [FODC0002] when [listen] is refused, as
    by {!Serving.listen}. *)

val stop : t -> unit
(** Close the listener and every live proxied connection, and join all
    pump threads.  Idempotent. *)

val connections : t -> int
(** Connections accepted so far. *)

val seeded_plans :
  seed:int ->
  ?p_stall:float ->
  ?p_drop:float ->
  ?p_throttle:float ->
  ?latency:float ->
  ?jitter:float ->
  ?rate:int ->
  unit ->
  int -> plan * plan
(** A deterministic schedule: connection [i]'s fate is drawn from
    splitmix64([seed], [i]) — with probability [p_stall] it stalls after
    a random prefix, with [p_drop] it drops, with [p_throttle] it is
    throttled to [rate] bytes/s, otherwise it passes with [latency] plus
    a uniform jitter in [0, [jitter]).  Same seed, same schedule. *)
