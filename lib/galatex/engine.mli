(** The GalaTex engine façade (paper Figure 4): index a corpus, compile and
    evaluate XQuery Full-Text queries under one of three strategies, inside
    a resource-governed boundary.

    The boundary guarantee: the only exception {!run}, {!run_report} and
    {!run_query_report} let escape is a structured
    {!Xquery.Errors.Error} — parse errors surface as [XPST0003], dynamic /
    type errors with their W3C codes, exhausted limits as
    [GTLX0001..GTLX0004], and any internal failure (including injected
    faults) as [GTLX0005] unless strategy fallback absorbs it. *)

type strategy =
  | Translated
      (** the paper's architecture: translate to plain XQuery over the fts
          module (itself XQuery) and XML inverted lists — complete,
          conformant, slow (Section 3.2) *)
  | Native_materialized
      (** the same AllMatches semantics as native operators, every
          intermediate AllMatches materialized *)
  | Native_pipelined
      (** Section 4.1: matches stream through the operator tree; FTContains
          exits at the first satisfying match *)

val strategy_name : strategy -> string

type t

(** {1 Construction} *)

val of_index :
  ?config:Tokenize.Segmenter.config ->
  ?thesauri:(string * Tokenize.Thesaurus.t) list ->
  ?default_thesaurus:Tokenize.Thesaurus.t ->
  Ftindex.Inverted.t ->
  t
(** [config] records the tokenizer configuration the index was built with
    (default {!Tokenize.Segmenter.default_config}); {!save} persists it so
    snapshot salvage re-indexes identically. *)

val create :
  ?config:Tokenize.Segmenter.config ->
  ?thesauri:(string * Tokenize.Thesaurus.t) list ->
  ?default_thesaurus:Tokenize.Thesaurus.t ->
  (string * Xmlkit.Node.t) list ->
  t
(** Index sealed documents (uri, root) and build an engine. *)

val of_strings :
  ?config:Tokenize.Segmenter.config ->
  ?thesauri:(string * Tokenize.Thesaurus.t) list ->
  ?default_thesaurus:Tokenize.Thesaurus.t ->
  (string * string) list ->
  t
(** Parse then index XML sources. *)

val env : t -> Env.t
val index : t -> Ftindex.Inverted.t

val fallback_count : t -> int
(** Graceful strategy degradations performed by this engine since
    construction (benches report this).  The counter is atomic: one engine
    may serve many concurrent requests, and the count stays exact. *)

val generation : t -> int option
(** [Some gen] iff this engine was built by {!of_store}: the snapshot
    generation it loaded.  The serving layer compares this against
    {!Ftindex.Store.current_generation} to detect new snapshots. *)

val salvage_report : t -> Ftindex.Store.report option
(** [Some report] iff this engine was built by {!of_store}; the report
    describes any corruption found and repairs performed during the load
    ({!Ftindex.Store.clean} tests for a pristine load). *)

type wal_recovery = { replayed : int;  (** records replayed *)
                      truncated_tail : bool  (** a torn tail was dropped *) }

val wal_recovery : t -> wal_recovery option
(** [Some r] iff {!of_store} found (and replayed) a write-ahead log based
    on the loaded snapshot generation. *)

(** {1 Persistence} *)

val save : ?io:Ftindex.Store.Io.t -> t -> dir:string -> unit
(** Persist the engine's index as a crash-safe snapshot directory
    ({!Ftindex.Store.save}) carrying this engine's tokenizer config.
    @raise Xquery.Errors.Error with [GTLX0008] when I/O fails mid-save. *)

val of_store :
  ?io:Ftindex.Store.Io.t ->
  ?limits:Xquery.Limits.t ->
  ?sources:(string * string) list ->
  ?thesauri:(string * Tokenize.Thesaurus.t) list ->
  ?default_thesaurus:Tokenize.Thesaurus.t ->
  dir:string ->
  unit ->
  t
(** Build an engine from a persisted snapshot, verifying every checksum
    under a governor built from [limits] (so the wall-clock deadline and
    step budget apply to loading; default {!Xquery.Limits.defaults}).
    [sources] (uri, XML text) enables re-indexing of damaged document
    segments.  The load outcome is retained as {!salvage_report}.

    When the snapshot directory holds a write-ahead log based on the loaded
    generation, its records are replayed onto the index (a torn tail is
    dropped silently; see {!Ftindex.Wal}) and {!wal_recovery} reports it.
    A log based on another generation (a compaction's leftover) is ignored.

    @raise Xquery.Errors.Error with [GTLX0006]/[GTLX0007]/[GTLX0008]
    (snapshot), [GTLX0010] (unreplayable update log), [FODC0002] or a
    resource code — and nothing else. *)

val share_counters : from:t -> t -> t
(** [share_counters ~from t] makes [t] report into [from]'s engine-lifetime
    counter cells (the atomic fallback count).  The serving layer applies
    it to the fresh engine a hot reload built, so counters survive the swap
    instead of resetting to zero. *)

val apply_update : t -> Ftindex.Wal.op -> t
(** Apply one live update, returning a {e new} engine over the updated
    index (exact: equal to indexing the updated document set from scratch,
    including corpus-wide scores).  The original engine is untouched, so
    in-flight readers are unaffected until the caller swaps engines; the
    fallback counter cell is shared across the swap.  The caller is
    responsible for logging the operation durably {e first}
    ({!Ftindex.Wal.append}).
    @raise Xquery.Errors.Error (e.g. [XPST0003] for malformed XML). *)

val compact : ?io:Ftindex.Store.Io.t -> t -> dir:string -> t
(** Fold the current index (snapshot + applied updates) into a fresh
    snapshot generation via the store's atomic-manifest protocol, then
    reset the write-ahead log on top of it.  Returns the engine stamped
    with the new generation.  The log reset is advisory — recovery ignores
    a stale log — so a crash anywhere leaves a recoverable directory.
    @raise Xquery.Errors.Error with [GTLX0008] when the save fails. *)

(** {1 Evaluation} *)

val parse : string -> Xquery.Ast.query
(** Parse a combined XQuery + Full-Text query.
    @raise Xquery.Parser.Error on syntax errors (the [run] family wraps
    this as a structured [XPST0003] error instead). *)

type report = {
  value : Xquery.Value.t;
  strategy_used : strategy;  (** the strategy that produced [value] *)
  fell_back : bool;  (** an optimized strategy failed internally and the
                         reference materialized path answered instead *)
  fallback_error : Xquery.Errors.t option;
      (** the internal error that triggered the fallback *)
  steps : int;  (** eval steps consumed by the whole run *)
  peak_matches : int;  (** largest materialization the governor observed *)
  fallbacks_total : int;
      (** {!fallback_count} of the engine after this run — the engine-wide
          degradation counter, not just this run's *)
  trace : Obs.Trace.span;
      (** the run's span tree, rooted at ["query"]: ["parse"] (when the run
          started from source text), ["translate"] (Translated strategy), ["eval"] with
          nested ["ft_eval"] / ["ft_stream"] spans per ftcontains dispatch.
          A fallback leaves both attempts' spans under the same root. *)
  counters : Xquery.Limits.counters;
      (** snapshot of this run's observability counters (materializations,
          postings read, full-text dispatches) *)
}

val run_report :
  t ->
  ?clock:Obs.Clock.t ->
  ?strategy:strategy ->
  ?limits:Xquery.Limits.t ->
  ?fault_at:int ->
  ?fallback:bool ->
  ?context:string ->
  string ->
  report
(** Parse (wrapping syntax errors as [XPST0003]) then evaluate under a
    fresh {!Xquery.Limits.governor}.

    [clock] is the time source for the report's {!report.trace} span tree
    (default {!Obs.Clock.real}; tests inject {!Obs.Clock.manual} so span
    assertions are deterministic).

    [context] selects the document whose root is the initial context node
    (default: the first indexed document); [fn:collection()] always
    returns all indexed documents.  Defaults: [Native_materialized],
    {!Xquery.Limits.defaults}, fallback enabled.

    [fault_at n] arms deterministic fault injection (a raw internal
    failure at eval step [n]) — the boundary converts it to [GTLX0005] or
    absorbs it via fallback; used by the robustness tests.

    [fallback] (default [true]): when an optimized strategy (anything
    other than plain [Native_materialized]) raises an {e internal} error,
    re-run on the reference materialized path under the same governor and
    record the degradation.  User errors (dynamic / type) and resource
    limits never trigger fallback.

    @raise Xquery.Errors.Error and nothing else. *)

val run_query_report :
  t ->
  ?clock:Obs.Clock.t ->
  ?strategy:strategy ->
  ?limits:Xquery.Limits.t ->
  ?fault_at:int ->
  ?fallback:bool ->
  ?context:string ->
  Xquery.Ast.query ->
  report
(** {!run_report} on a query parsed already with {!parse}: the report has
    no ["parse"] span.  [perfbench] uses it to time evaluation without
    the parse. *)

val run :
  t ->
  ?clock:Obs.Clock.t ->
  ?strategy:strategy ->
  ?limits:Xquery.Limits.t ->
  ?fault_at:int ->
  ?fallback:bool ->
  ?context:string ->
  string ->
  Xquery.Value.t
(** [run_report] returning only the value. *)

val translate_to_text : string -> string
(** The plain XQuery the Section 3.2.2 translation produces, as text. *)

val selection_all_matches :
  ?approximate:bool -> t -> string -> context_nodes:unit -> All_matches.t
(** Evaluate one FTSelection (source text) to its AllMatches over the whole
    corpus — the building block examples, tests and benches use.
    [approximate] enables the Section 3.3 approximate-matching extension for
    distance/window. *)
