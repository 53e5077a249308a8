(** Native evaluation of FTSelection trees — the Native_materialized
    strategy and the semantic reference the translated strategy is tested
    against. *)

type eval_callback = Xquery.Context.t -> Xquery.Ast.expr -> Xquery.Value.t
(** Callback into the XQuery evaluator for embedded expressions (word
    sources, range bounds, weights). *)

val context_filter : Env.t -> Xmlkit.Node.t list -> Ft_ops.within option
(** The evaluation context, located and grouped by document, for
    source-level position filtering (the paper's getTokenInfo
    restriction). *)

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
