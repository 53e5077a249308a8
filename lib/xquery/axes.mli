(** XPath axes over the xmlkit node tree. *)

val apply : Ast.axis -> Xmlkit.Node.t -> Xmlkit.Node.t list
(** Nodes on the axis from a context node, forward axes in document order,
    reverse axes nearest-first. *)

val node_test : Ast.node_test -> Xmlkit.Node.t -> bool

val step_nodes : Ast.axis -> Ast.node_test -> Xmlkit.Node.t -> Xmlkit.Node.t list
(** [apply] filtered by the node test (predicates are the evaluator's
    job). *)

val step_items :
  Ast.axis -> Ast.node_test -> Xmlkit.Node.t -> Value.t -> Value.t
(** [step_items axis test n tail] is [step_nodes axis test n] as items, in
    front of [tail]; a child step, or a descendant step by name, builds no
    node list on the way.  Apply it to the axis and test once for all the
    context nodes of a step. *)

(** Individual axes, exposed for tests. *)

val child : Xmlkit.Node.t -> Xmlkit.Node.t list
val descendant : Xmlkit.Node.t -> Xmlkit.Node.t list
val descendant_or_self : Xmlkit.Node.t -> Xmlkit.Node.t list
val self : Xmlkit.Node.t -> Xmlkit.Node.t list
val attribute : Xmlkit.Node.t -> Xmlkit.Node.t list
val parent : Xmlkit.Node.t -> Xmlkit.Node.t list
val ancestor : Xmlkit.Node.t -> Xmlkit.Node.t list
val ancestor_or_self : Xmlkit.Node.t -> Xmlkit.Node.t list
val following_sibling : Xmlkit.Node.t -> Xmlkit.Node.t list
val preceding_sibling : Xmlkit.Node.t -> Xmlkit.Node.t list
val following : Xmlkit.Node.t -> Xmlkit.Node.t list
val preceding : Xmlkit.Node.t -> Xmlkit.Node.t list
