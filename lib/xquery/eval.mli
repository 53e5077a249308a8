(** The XQuery evaluator: FLWOR tuple streams, path steps with
    document-order dedup, focus-aware predicates, quantifiers, constructors,
    and dispatch of ftcontains / ft:score to the installed
    {!Context.ft_handler}. *)

val eval : Context.t -> Ast.expr -> Value.t
(** Evaluate one expression in a dynamic context.
    @raise Errors.Error on dynamic, type and resource-limit failures (the
    context's {!Limits.governor} accounts every step). *)

val setup_context :
  ?resolve_doc:(string -> Xmlkit.Node.t option) ->
  ?ft:Context.ft_handler ->
  ?governor:Limits.governor ->
  ?prepare:(Context.t -> Context.t) ->
  Ast.query ->
  Context.t
(** Fresh context with the fn: library registered, then [prepare] applied
    (more builtins, modules, the context item), then the query's declared
    functions installed and its global variables evaluated in order — so
    the initializers see everything [prepare] installs. *)

val load_module : Context.t -> Ast.query -> Context.t
(** Register a parsed library module's functions and variables. *)

val run :
  ?resolve_doc:(string -> Xmlkit.Node.t option) ->
  ?ft:Context.ft_handler ->
  ?governor:Limits.governor ->
  ?context_node:Xmlkit.Node.t ->
  Ast.query ->
  Value.t
(** Set up and evaluate a query; [context_node] provides the initial focus
    (position 1 of 1). *)

val run_string :
  ?resolve_doc:(string -> Xmlkit.Node.t option) ->
  ?ft:Context.ft_handler ->
  ?governor:Limits.governor ->
  ?context_node:Xmlkit.Node.t ->
  string ->
  Value.t
(** Parse then {!run}. *)

val copy_node : Xmlkit.Node.t -> Xmlkit.Node.t
(** Deep copy used by element constructors (returned tree is unsealed). *)
