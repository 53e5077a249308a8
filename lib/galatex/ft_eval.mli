(** Native (materialized) evaluation of FTSelection trees — the
    Native_materialized strategy and the semantic reference the other
    strategies are tested against. *)

type eval_callback = Xquery.Context.t -> Xquery.Ast.expr -> Xquery.Value.t
(** Callback into the XQuery evaluator for embedded expressions (word
    sources, range bounds, weights). *)

val eval_int : eval:eval_callback -> Xquery.Context.t -> Xquery.Ast.expr -> int
val eval_float : eval:eval_callback -> Xquery.Context.t -> Xquery.Ast.expr -> float

val eval_weight :
  eval:eval_callback -> Xquery.Context.t -> Xquery.Ast.expr -> float
(** Evaluate an FTWords weight.
    @raise Xquery.Errors.Error ([FTDY0016]) outside [0, 1]. *)

val eval_range :
  eval:eval_callback -> Xquery.Context.t -> Xquery.Ast.ft_range -> Ft_ops.range

val eval_unit : Xquery.Ast.ft_unit -> Ft_ops.unit_

val source_phrases :
  eval:eval_callback ->
  Xquery.Context.t ->
  Xquery.Ast.ft_words_source ->
  string list
(** The phrases a words source denotes (each item of an embedded
    expression's value is one phrase). *)

(** {1 Compiled FTWords leaves} *)

type words = {
  conjunctive : bool;  (** FTAnd of the units, else FTOr *)
  units : Ft_ops.phrase list;
      (** each searched phrase (or single word) as
          {!Ft_ops.phrase_expansions} *)
}
(** An FTWords leaf compiled against the index: its phrases tokenized by
    its any/all mode, every token expanded. *)

val compile_words :
  Env.t ->
  Match_options.resolved ->
  Xquery.Ast.ft_anyall ->
  string list ->
  words
(** An FTWords leaf's phrases compiled under its resolved options. *)

val context_filter : Env.t -> Xmlkit.Node.t list -> Ft_ops.within option
(** The evaluation context, located and grouped by document, for
    source-level position filtering (the paper's getTokenInfo
    restriction). *)

val nodes_of : Xquery.Value.t -> Xmlkit.Node.t list
(** @raise Xquery.Errors.Error ([XPTY0004]) when the value holds
    non-nodes. *)

val all_matches :
  ?within:Ft_ops.within ->
  ?approximate:bool ->
  Env.t ->
  eval:eval_callback ->
  Xquery.Context.t ->
  Xquery.Ast.ft_selection ->
  All_matches.t
(** Evaluate a selection: match options propagate outside-in to the leaves,
    leaves are numbered left-to-right (queryPos), ranges/weights evaluated
    through [eval].  [approximate] switches distance/window to the
    Section 3.3 approximate variants.  [within] restricts the leaves'
    reads to the evaluation context (default: every document). *)

val handler : Env.t -> Xquery.Context.ft_handler
(** The ftcontains / ft:score handler installed for the materialized
    strategy.  Its [handle_each] compiles the selection once per call and
    evaluates each node alone: a [Contains] verdict stops at the first
    match that satisfies the node, reading an FTAnd's right operand only
    once its left one has matched; a [Score] verdict, and a selection
    with a content anchor, build every match of the node.  Each node
    ticks the steps its own evaluation of the embedded expressions
    would take. *)
