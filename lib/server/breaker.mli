(** Per-strategy circuit breakers for the query daemon.

    Each request degrades gracefully: the translated strategy, when it
    dies on an internal error, falls back to the reference materialized
    path, once, inside that request.  Under sustained load a
    systematically-broken strategy would pay that doubled work on every
    request; the breaker notices {e consecutive} internal-error fallbacks
    per strategy and trips, routing subsequent requests straight to the
    reference path, then probes the strategy again after a cooldown
    {e measured in requests} (not wall clock, so tests are deterministic).

    State machine per strategy key:
    - [Closed]: requests run on their strategy; [ok:false] outcomes count
      consecutively, and reaching [threshold] trips to [Open cooldown].
    - [Open n]: each routed request is bypassed to the reference path and
      decrements [n]; at zero the breaker is half-open.
    - [Half_open]: exactly one request is let through as a probe (others
      bypass while it is in flight); a successful probe closes the
      breaker, a failed one re-opens it with a full cooldown.

    Thread-safe: one breaker registry serves the whole worker pool. *)

type t

val create : threshold:int -> cooldown:int -> t
(** [threshold] consecutive failures trip a strategy; [cooldown] bypassed
    requests must pass before a probe.  Both are clamped to at least 1. *)

type decision =
  | Run  (** evaluate on the requested strategy *)
  | Probe  (** half-open probe: evaluate on the requested strategy *)
  | Bypass  (** tripped: evaluate on the reference materialized path *)

val route : t -> string -> decision
(** Routing decision for a request wanting strategy [key];
    advances the open-state cooldown.  Call {!record} with the outcome
    whenever this returned [Run] or [Probe]. *)

val record : t -> string -> ok:bool -> unit
(** Report the outcome of a [Run]/[Probe] routed request: [ok:false] means
    the strategy failed internally (it fell back, or surfaced an internal
    error). *)

type snapshot = {
  strategy : string;
  state : string;  (** "closed" | "open" | "half-open" *)
  consecutive : int;  (** consecutive failures while closed *)
  cooldown : int;  (** bypassed requests remaining before half-open *)
  trips : int;  (** times this strategy's breaker opened *)
}

val snapshots : t -> snapshot list
(** Every strategy key seen so far, in sorted order. *)

val trips_total : t -> int
