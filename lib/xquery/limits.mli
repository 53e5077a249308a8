(** Execution limits and the mutable governor enforcing them.

    A {!governor} is created once per run and shared by every context the
    run derives (contexts are copied functionally, the governor is not).
    Exceeded limits raise structured {!Errors.Error} values in the
    GTLX0001..GTLX0004 resource family. *)

type t = {
  max_steps : int option;  (** eval fuel budget (GTLX0001) *)
  max_depth : int option;  (** user-function recursion depth (GTLX0002) *)
  max_matches : int option;
      (** materialization cap — AllMatches size, FLWOR tuple count, range
          length (GTLX0003) *)
  timeout : float option;  (** wall-clock seconds for the run (GTLX0004) *)
}

val unlimited : t

val defaults : t
(** No step / materialization / time limits; recursion capped at
    {!default_max_depth} so runaway recursion yields GTLX0002 instead of
    [Stack_overflow].  Chosen so every pre-existing test and bench passes
    unchanged. *)

val default_max_depth : int

(** Per-run observability counters, carried by the governor so every hook
    site (operator outputs, posting reads, full-text dispatches) is a
    single plain-int increment on a path that already holds the governor
    for limit checks.  One governor serves one run on one thread; the
    serving layer aggregates across runs with atomics. *)
type counters = {
  mutable allmatches_materialized : int;
      (** native strategy: sum of AllMatches sizes at every operator output
          it materializes — under a node's early-exit verdict, the leaves'
          and the blocking operators' (FTUnaryNot, FTMildNot, FTTimes)
          outputs; the size of the paper's Section 4 bottleneck *)
  mutable postings_read : int;
      (** inverted-list entries read at FTWords leaves: the entries of
          the context documents' runs of each word inside the context
          nodes (the whole list without a context), counted before option
          filtering *)
  mutable ft_dispatches : int;
      (** calls of the full-text handler: one per [ftcontains] or
          [ft:score] evaluated alone, one per batch the evaluator hands
          over whole (see {!Context.ft_handler}) *)
}

val fresh_counters : unit -> counters
val copy_counters : counters -> counters
(** An independent snapshot (reports retain one after the run ends). *)

val counters_to_list : counters -> (string * int) list
(** Stable (name, value) pairs for exposition. *)

type governor

val governor : ?fault_at:int -> t -> governor
(** Fresh governor; a [timeout] is converted to an absolute deadline now.
    [fault_at n] arms deterministic fault injection: reaching eval step
    [n] raises a {e raw} [Failure] (simulating an internal bug) exactly
    once.  Default: disabled. *)

val ungoverned : unit -> governor
(** [governor defaults]. *)

val measure : governor -> (governor -> 'a) -> 'a
(** [measure g f] runs [f] on a governor that starts where [g] stands:
    [g]'s limits, deadline, step count and recursion depth, and [g]'s
    counters themselves, with no fault armed.  [f] is held to every limit
    of [g] while it runs, but the steps it takes are not ticked on [g]:
    the caller reads them off the governor it was given and ticks them on
    [g] where they belong.  [g]'s peak materialization takes in [f]'s. *)

val steps : governor -> int
(** Eval steps consumed so far. *)

val peak_matches : governor -> int
(** Largest materialization observed by {!check_matches}. *)

val counters : governor -> counters
(** The run's live counter record (mutated in place by the hooks). *)

val count_materialized : governor -> int -> unit
val count_postings : governor -> int -> unit
val count_ft_dispatch : governor -> unit

val tick : governor -> unit
(** Account one eval step: fires the injected fault when armed, enforces
    the step budget, and polls the deadline every 256 steps. *)

val check_deadline : governor -> unit
(** Unconditional deadline check (used at coarse-grained boundaries). *)

val io_tick : governor -> unit
(** Account one storage operation (a snapshot segment read/parse): counts
    against the step budget and polls the deadline unconditionally, so the
    wall-clock limit applies to index loading too. *)

val enter_call : governor -> unit
(** Enter a user-function application; raises GTLX0002 past the depth
    limit. *)

val exit_call : governor -> unit

val check_matches : governor -> int -> unit
(** Fail with GTLX0003 if [n] exceeds the materialization cap. *)

val check_product : governor -> int -> int -> unit
(** [check_product g a b] guards an [a * b] cross product {e before} it is
    built (overflow-safe). *)
