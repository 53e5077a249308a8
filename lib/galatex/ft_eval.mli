(** Native evaluation of FTSelection trees — the Native_materialized
    strategy and the semantic reference the translated strategy is tested
    against. *)

type eval_callback = Xquery.Context.t -> Xquery.Ast.expr -> Xquery.Value.t
(** Callback into the XQuery evaluator for embedded expressions (word
    sources, range bounds, weights). *)

val all_matches :
  ?scope:Ft_ops.scope ->
  ?approximate:bool ->
  Env.t ->
  eval:eval_callback ->
  Xquery.Context.t ->
  Xquery.Ast.ft_selection ->
  All_matches.t
(** Evaluate a selection: match options propagate outside-in to the leaves,
    leaves are numbered left-to-right (queryPos), ranges/weights evaluated
    through [eval].  [approximate] switches distance/window to the
    Section 3.3 approximate variants.  [scope] restricts the leaves'
    reads to one located node (default: every document).  A content
    anchor keeps those matches of its operand whose includes start, end
    or span that node's tokens.
    @raise Invalid_argument for a selection with a content anchor under
    the default [scope]: an anchor needs a search context. *)

val handler : Env.t -> Xquery.Context.ft_handler
(** The ftcontains / ft:score handler installed for the materialized
    strategy.  It compiles the selection once per call and evaluates each
    node alone: a [Contains] verdict stops at the first match that
    satisfies the node, reading an FTAnd's right operand only once its
    left one has matched; a [Score] verdict, and a selection with a
    [without content] filter, build every match of the node.  Each node ticks the steps its own evaluation of the
    embedded expressions would take. *)
