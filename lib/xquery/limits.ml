(* Execution limits and the mutable governor that enforces them.

   One governor is shared by every context derived from a run: contexts
   are copied functionally, the governor record is not.  All checks
   compile to integer compares against [max_int] / [infinity] sentinels so
   ungoverned runs pay one increment and two compares per eval step.

   The governor also hosts deterministic fault injection: [fault_at = n]
   raises a *raw* [Failure] when the step counter reaches [n], simulating
   an internal engine bug.  The engine boundary is required to convert it
   to a structured GTLX0005 error (or fall back to the reference
   strategy); the fault-sweep test drives every step index through this
   path. *)

type t = {
  max_steps : int option;  (** eval fuel budget *)
  max_depth : int option;  (** user-function recursion depth *)
  max_matches : int option;
      (** materialization cap: AllMatches size, FLWOR tuple count,
          range-expression length *)
  timeout : float option;  (** wall-clock seconds for the whole run *)
}

let unlimited = { max_steps = None; max_depth = None; max_matches = None; timeout = None }

(* Default recursion cap: far above anything the tests or benches reach,
   far below where the OCaml stack would overflow inside [Eval.eval]. *)
let default_max_depth = 10_000

let defaults = { unlimited with max_depth = Some default_max_depth }

(* Per-run observability counters.  They piggyback on the governor because
   every hook site (operator outputs, posting reads, handler dispatches)
   already holds it for limit checks — so a hook is one plain-int
   increment on an already-touched path.  A governor belongs to one run on
   one thread; cross-request aggregation (atomics) is the serving layer's
   job. *)
type counters = {
  mutable allmatches_materialized : int;
      (** native strategy: sum of AllMatches sizes at every operator output
          it materializes *)
  mutable postings_read : int;
      (** inverted-list entries read at the leaves: the context documents'
          runs of each word, before node and option filtering *)
  mutable ft_dispatches : int;  (** calls of the full-text handler *)
}

let fresh_counters () =
  {
    allmatches_materialized = 0;
    postings_read = 0;
    ft_dispatches = 0;
  }

let copy_counters c =
  {
    allmatches_materialized = c.allmatches_materialized;
    postings_read = c.postings_read;
    ft_dispatches = c.ft_dispatches;
  }

let counters_to_list c =
  [
    ("allmatches_materialized", c.allmatches_materialized);
    ("postings_read", c.postings_read);
    ("ft_dispatches", c.ft_dispatches);
  ]

type governor = {
  limits : t;
  max_steps : int;
  max_depth : int;
  max_matches : int;
  deadline : float;  (** absolute [Unix.gettimeofday] time, or [infinity] *)
  mutable steps : int;
  mutable depth : int;
  mutable peak_matches : int;
  mutable fault_at : int;  (** step index to fail at; -1 when disabled *)
  counters : counters;
}

let governor ?(fault_at = -1) (limits : t) =
  {
    limits;
    max_steps = Option.value limits.max_steps ~default:max_int;
    max_depth = Option.value limits.max_depth ~default:max_int;
    max_matches = Option.value limits.max_matches ~default:max_int;
    deadline =
      (match limits.timeout with
      | Some s -> Unix.gettimeofday () +. s
      | None -> infinity);
    steps = 0;
    depth = 0;
    peak_matches = 0;
    fault_at;
    counters = fresh_counters ();
  }

let ungoverned () = governor defaults

(* A copy that starts where [g] stands: its limits, deadline, step count,
   recursion depth and counters (the same record), with no fault armed.
   Work run on it is held to every limit of [g] while it runs, but its
   steps stay off [g]: the caller measures them and ticks them on [g]
   where they belong. *)
let measure g f =
  let m = { g with fault_at = -1 } in
  Fun.protect
    ~finally:(fun () -> g.peak_matches <- max g.peak_matches m.peak_matches)
    (fun () -> f m)

let steps g = g.steps
let peak_matches g = g.peak_matches
let counters g = g.counters

let count_materialized g n =
  g.counters.allmatches_materialized <- g.counters.allmatches_materialized + n

let count_postings g n = g.counters.postings_read <- g.counters.postings_read + n

let count_ft_dispatch g =
  g.counters.ft_dispatches <- g.counters.ft_dispatches + 1

(* How often (in steps) the deadline is polled; a power of two so the
   check is a mask. *)
let deadline_poll_mask = 255

let tick g =
  g.steps <- g.steps + 1;
  if g.steps = g.fault_at then begin
    g.fault_at <- -1;
    (* deliberately a raw exception: simulates an internal engine bug *)
    failwith (Printf.sprintf "injected fault at eval step %d" g.steps)
  end;
  if g.steps > g.max_steps then
    Errors.raise_error Errors.GTLX0001 "step budget of %d exceeded" g.max_steps;
  (* poll at steps 1, 257, 513, ... so even sub-256-step queries notice
     an already-expired deadline *)
  if
    g.deadline < infinity
    && g.steps land deadline_poll_mask = 1
    && Unix.gettimeofday () > g.deadline
  then
    Errors.raise_error Errors.GTLX0004 "wall-clock deadline exceeded after %d steps"
      g.steps

(* Storage operations (segment reads during a snapshot load) are far
   coarser than eval steps, so each one counts as a step *and* polls the
   deadline unconditionally: a load that outlives the wall-clock budget
   stops at the next segment boundary with GTLX0004. *)
let io_tick g =
  g.steps <- g.steps + 1;
  if g.steps > g.max_steps then
    Errors.raise_error Errors.GTLX0001 "step budget of %d exceeded" g.max_steps;
  if g.deadline < infinity && Unix.gettimeofday () > g.deadline then
    Errors.raise_error Errors.GTLX0004
      "wall-clock deadline exceeded after %d steps" g.steps

let check_deadline g =
  if g.deadline < infinity && Unix.gettimeofday () > g.deadline then
    Errors.raise_error Errors.GTLX0004 "wall-clock deadline exceeded after %d steps"
      g.steps

let enter_call g =
  g.depth <- g.depth + 1;
  if g.depth > g.max_depth then begin
    (* keep the counter balanced: the matching exit_call will not run *)
    g.depth <- g.depth - 1;
    Errors.raise_error Errors.GTLX0002 "recursion depth limit of %d exceeded"
      g.max_depth
  end

let exit_call g = g.depth <- g.depth - 1

let check_matches g n =
  if n > g.peak_matches then g.peak_matches <- n;
  if n > g.max_matches then
    Errors.raise_error Errors.GTLX0003
      "materialization limit of %d exceeded (%d items)" g.max_matches n

(* Guard a binary cross product before building it: [a * b] can overflow
   and, more importantly, can be far too large to materialize. *)
let check_product g a b =
  if a > 0 && b > 0 then
    if b > g.max_matches / a then
      Errors.raise_error Errors.GTLX0003
        "materialization limit of %d exceeded (%d x %d cross product)"
        g.max_matches a b
    else check_matches g (a * b)
