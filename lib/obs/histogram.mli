(** Thread-safe latency histogram with fixed log-spaced buckets.

    Observation is lock-free (one atomic increment per bucket plus the
    running sum), so the daemon's workers record latencies without
    contending. *)

type t

val default_bounds : float array
(** Upper bounds in seconds, 1–2.5–5 per decade from 100 us to 10 s. *)

val create : ?bounds:float array -> unit -> t
(** A fresh histogram ([bounds] is copied and sorted ascending). *)

val observe : t -> float -> unit
(** Record one value in seconds.  Non-finite or negative values count as
    0 (first bucket) so a clock glitch can never throw. *)

val count : t -> int
(** Total observations. *)

val sum : t -> float
(** Sum of observed values in seconds (accumulated in integer
    nanoseconds, so it is exact and atomic). *)

val cumulative : t -> (float * int) list
(** Prometheus-style cumulative buckets [(le, count_at_or_below)],
    ascending, ending with [(infinity, count)]. *)

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted p]: the nearest-rank [p]-th percentile ([p] in
    percent, 0–100) of an ascending array — the smallest sample with at
    least [p] percent of the samples at or below it, so every reported
    percentile is a value some observation actually had.  The rank is
    [ceil (p * n / 100)], formed in that order so whole-percent ranks
    stay exact; [p = 0] gives the minimum.  [nan] on an empty array. *)
