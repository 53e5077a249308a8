(** The named workload scenarios behind BENCH_R9.json and the CI gate.

    Each scenario is a (corpus, topology, trace spec) triple brought up
    in-process — single daemons, a 2-shard router with one WAL-shipping
    replica, or three small tenant daemons — replayed open-loop, and
    torn down; everything downstream of [seed] is deterministic, and
    [scale] shrinks request counts so CI runs the same scenarios in
    seconds. *)

type settings = {
  scale : float;  (** request-count multiplier; floors keep ≥ 10 each *)
  seed : int;
  max_lag : int option;  (** router failover freshness bound (topk-heavy) *)
  only : string list;  (** scenario-name filter; empty = all *)
}

val default_settings : settings
(** scale 1.0, seed 42, max_lag 64, all scenarios. *)

val names : string list
(** In run order: zipf-read-only, phrase-heavy, boolean-heavy,
    topk-heavy, mixed-read-write, multi-tenant-small-indexes. *)

val reported_counters : string list
(** The stats counters a scenario report carries next to its latency
    numbers, read from the daemon or router the trace was replayed
    against; every name is exported by one of the two roles. *)

val run :
  ?progress:(string -> unit) -> settings -> Report.scenario list
(** Run the selected scenarios sequentially, returning one report each.
    [progress] fires with the scenario name just before it starts.
    Scratch snapshots and sockets live under the working directory and
    are removed on exit.
    @raise Invalid_argument on a non-positive scale or an unknown name
    in [only]. *)
