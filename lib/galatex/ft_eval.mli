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
  units : Match_options.expansion list list;
      (** each searched phrase (or single word) as
          {!Ft_ops.phrase_expansions} *)
}
(** An FTWords leaf compiled against the index: its phrases tokenized by
    its any/all mode, every token expanded. *)

type leaves
(** The compiled leaves of one handler call, by leaf number. *)

val fresh_leaves : unit -> leaves

val leaf_words :
  leaves ->
  Env.t ->
  outer_options:Match_options.resolved ->
  query_pos:int ->
  Xquery.Ast.ft_match_option list ->
  Xquery.Ast.ft_anyall ->
  string list ->
  words
(** Leaf [query_pos] compiled for these phrases: the earlier compilation
    when the phrases are the same, else a new one (which replaces it). *)

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
  ?leaves:leaves ->
  ?stop_at:Ft_ops.site ->
  Env.t ->
  eval:eval_callback ->
  Xquery.Context.t ->
  Xquery.Ast.ft_selection ->
  All_matches.t
(** Evaluate a selection: match options propagate outside-in to the leaves,
    leaves are numbered left-to-right (queryPos), ranges/weights evaluated
    through [eval].  [approximate] switches distance/window to the
    Section 3.3 approximate variants.  [leaves] (default: fresh) carries
    compiled leaves from one evaluation of the selection to the next.

    [stop_at site] evaluates a top-level FTOr chain's disjuncts left to
    right and stops at the first whose matches satisfy [site] (includes
    read inside it).  For a selection without content anchors, the
    result satisfies [site] exactly when the whole union would: FTOr
    carries every operand's anchors to every match of the union.
    Skipped disjuncts evaluate none of their embedded expressions. *)

val each_node :
  Env.t ->
  per_node:(unit -> unit) ->
  Xquery.Value.t ->
  (leaves:leaves -> within:Ft_ops.within -> Ft_ops.site option -> Xquery.Value.item) ->
  Xquery.Value.t
(** The shape of every strategy's [handle_each]: call [per_node], then
    the verdict for one node, located once ({!Ft_ops.locate}), for each
    node in order, sharing one {!leaves}.  The verdict evaluates the
    selection [within] that node alone. *)

val handler : Env.t -> Xquery.Context.ft_handler
(** The ftcontains / ft:score handler installed for the materialized
    strategy. *)
