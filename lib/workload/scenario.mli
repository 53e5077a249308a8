(** The named workload scenarios behind BENCH_R9.json and the CI gate.

    Each scenario is a (corpus, topology, trace spec) triple brought up
    in-process — single daemons, 2-shard routers (with a WAL-shipping
    replica, or behind seeded fault proxies), a failover pair, or three
    small tenant daemons — replayed open-loop, and torn down.  The fault
    drills add timed events ({!Replay.run}'s [events]) that stop a shard
    or the primary, or roll a reload, at a fixed point of the trace.
    Everything downstream of [seed] is deterministic except the faults'
    timing against in-flight requests, and [scale] shrinks request
    counts so CI runs the same scenarios in seconds. *)

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
    topk-heavy, mixed-read-write, multi-tenant-small-indexes, shard-loss
    (a rolling reload at 30% of the trace, then one of two unreplicated
    shards stopped at 60%: partials, no errors), replica-failover (the
    primary of a primary + follower pair stopped mid-trace under writes:
    the router promotes the follower) and net-faults (5% stalled
    connections on the client and one shard link, 0.5 s deadlines). *)

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
