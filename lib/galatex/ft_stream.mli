(** Pipelined evaluation of FTSelections (paper Section 4.1): matches flow
    lazily through the operator tree; FTUnaryNot and FTTimes block (force
    their input), matching the paper's classification. *)

type stream = {
  seq : All_matches.match_ Seq.t;
  anchors : Xquery.Ast.ft_anchor list;
  mutable pulled : int;
      (** matches actually produced by consumers — the Figure 7 metric *)
}

val of_matches : All_matches.match_ list -> stream
val to_all_matches : stream -> All_matches.t

val stream :
  ?scope:Ft_ops.scope ->
  Env.t ->
  eval:Ft_eval.eval_callback ->
  Xquery.Context.t ->
  Xquery.Ast.ft_selection ->
  stream
(** Build the lazy match stream for a selection (nothing is evaluated until
    a consumer pulls).  The leaves read in [scope] (default: every
    document). *)

val contains : Env.t -> Xmlkit.Node.t list -> stream -> bool
(** The early-exit FTContains loop: stops at the first (match, node) pair
    that satisfies — the paper's "if succeeded in marking new nodes then
    break".  Updates [pulled]. *)

val handler : Env.t -> Xquery.Context.ft_handler
(** The ftcontains / ft:score handler for the pipelined strategy (ft:score
    materializes — the Section 4.2 tension between pipelining and
    scoring). *)
