(* Static and dynamic evaluation contexts.

   The full-text extension point mirrors the paper's architecture: the
   XQuery engine knows nothing about full-text semantics; a [ft_handler]
   installed by the GalaTex layer receives ftcontains / ft:score nodes
   together with an [eval] callback for embedded XQuery expressions. *)

module String_map = Map.Make (String)

type focus = { item : Value.item; position : int; size : int }

type t = {
  vars : Value.t String_map.t;
  globals : Value.t String_map.t;
      (** the prolog and module variables: a function body sees these and
          its parameters, never its caller's variables *)
  focus : focus option;
  functions : functions;
  resolve_doc : string -> Xmlkit.Node.t option;
  ft : ft_handler option;
  governor : Limits.governor;
      (** shared (mutable) across every context derived from one run *)
}

and functions = (string * int, func) Hashtbl.t

and func =
  | Builtin of (t -> Value.t list -> Value.t)
  | User of Ast.function_def

and ft_handler = {
  handle_contains :
    eval:(t -> Ast.expr -> Value.t) ->
    t ->
    Value.t ->
    Ast.ft_selection ->
    Value.t option ->
    Value.t;
      (** evaluation-context nodes, selection, optional ignored nodes ->
          boolean value *)
  handle_score :
    eval:(t -> Ast.expr -> Value.t) ->
    t ->
    Value.t ->
    Ast.ft_selection ->
    Value.t;
      (** context nodes, selection -> one double per context node *)
  handle_each :
    eval:(t -> Ast.expr -> Value.t) ->
    t ->
    per_node:(unit -> unit) ->
    Value.t ->
    Ast.ft_selection ->
    ft_verdict ->
    Value.t;
      (** nodes, selection -> one verdict per node: the boolean
          [n ftcontains S] or the double [ft:score(n, S)], each node
          evaluated alone exactly as [handle_contains] / [handle_score]
          evaluate it.  This is how the evaluator hands over a whole
          path step's predicate [E[. ftcontains S]], or the items of
          [for $v in E let $s := ft:score($v, S)], in one call instead of
          one call per node.  It does so only when every expression
          embedded in [S] is a literal or a reference to a variable other
          than [$v], so [S] means the same for every node and the handler
          may tokenize and expand its words once.  [per_node] is called
          before each node's evaluation: it ticks the governor as
          evaluating the [ftcontains] / [ft:score] expression and its
          context expression would, keeping step budgets and fault
          injection where per-node evaluation puts them. *)
}

and ft_verdict = Contains | Score

(* Dynamic errors are structured (Errors.Error) so callers dispatch on
   codes; [dynamic_error] keeps the old formatting interface for sites
   whose best classification is a generic dynamic error. *)
let dynamic_error fmt = Errors.raise_error Errors.FORG0006 fmt

let create ?(resolve_doc = fun _ -> None) ?ft ?governor () =
  {
    vars = String_map.empty;
    globals = String_map.empty;
    focus = None;
    functions = Hashtbl.create 64;
    resolve_doc;
    ft;
    governor =
      (match governor with Some g -> g | None -> Limits.ungoverned ());
  }

let with_ft t ft = { t with ft = Some ft }
let with_doc_resolver t resolve_doc = { t with resolve_doc }

let bind_var t name value = { t with vars = String_map.add name value t.vars }

let bind_global t name value =
  let t = bind_var t name value in
  { t with globals = t.vars }

let lookup_var t name =
  match String_map.find_opt name t.vars with
  | Some v -> v
  | None -> Errors.raise_error Errors.XPST0008 "undefined variable $%s" name

let with_focus t item ~position ~size =
  { t with focus = Some { item; position; size } }

let focus_exn t what =
  match t.focus with
  | Some f -> f
  | None ->
      Errors.raise_error Errors.XPDY0002 "%s used with no context item" what

(* Builtins are registered under their local name; lookups strip an "fn:"
   prefix so both spellings work.  User functions are stored under their
   full QName. *)
let strip_fn name =
  if String.length name > 3 && String.sub name 0 3 = "fn:" then
    String.sub name 3 (String.length name - 3)
  else name

let register_builtin t name arity impl =
  Hashtbl.replace t.functions (name, arity) (Builtin impl)

let register_function t (def : Ast.function_def) =
  Hashtbl.replace t.functions
    (def.Ast.fname, List.length def.Ast.params)
    (User def)

let find_function t name arity =
  match Hashtbl.find_opt t.functions (name, arity) with
  | Some f -> Some f
  | None -> Hashtbl.find_opt t.functions (strip_fn name, arity)
