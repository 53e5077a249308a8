(** The XQuery data model (XDM) fragment the engine operates on: sequences
    of items.  Untyped atomics from atomization are strings promoted to
    numbers on demand. *)

type item =
  | Node of Xmlkit.Node.t
  | Boolean of bool
  | Integer of int
  | Double of float
  | String of string

type t = item list

(** {1 Construction} *)

val empty : t
val of_item : item -> t
val of_nodes : Xmlkit.Node.t list -> t
val boolean : bool -> t
val integer : int -> t
val double : float -> t
val string : string -> t

(** {1 Atomization and casts} *)

val atomize : t -> t
(** Nodes become their (string) typed values. *)

val atomize_item : item -> item
val item_kind : item -> string

val item_to_double : item -> float
(** NaN on non-numeric strings; atomizes nodes first. *)

val item_to_string : item -> string
(** XQuery serialization of one atomic (whole doubles without ".", INF/NaN
    spellings). *)

val to_singleton : string -> t -> item
(** @raise Errors.Error ([XPTY0004]) unless the sequence has exactly one item. *)

val to_string_single : t -> string
val to_number : t -> float

val to_node : string -> item -> Xmlkit.Node.t
(** @raise Errors.Error ([XPTY0004]) on a non-node. *)

val nodes_of : string -> t -> Xmlkit.Node.t list

(** {1 Semantics} *)

val effective_boolean_value : t -> bool
(** XQuery 2.4.3: empty = false, node-first = true, singleton atomics by
    value.  @raise Errors.Error ([XPTY0004]) on multi-item atomic sequences. *)

type comparison = Eq | Ne | Lt | Le | Gt | Ge

val compare_items : item -> item -> int
(** Atomized comparison; numeric when either side is numeric. *)

val general_compare : comparison -> t -> t -> bool
(** Existential (=, !=, <, ...) over both sequences. *)

val value_compare : comparison -> t -> t -> bool option
(** eq/ne/lt/...: [None] when either side is empty.
    @raise Errors.Error ([XPTY0004]) on non-singletons. *)

type arith = Add | Sub | Mul | Div | Idiv | Mod

val arith : arith -> t -> t -> t
(** Integer arithmetic when both operands are integers (except Div),
    double otherwise; empty operand gives empty. *)

val document_order_dedup : t -> t
(** Sort nodes into document order and remove duplicates (path-step
    semantics).  A sequence already strictly in document order is returned
    as is, after one pass that allocates nothing.
    @raise Errors.Error ([XPTY0004]) on non-node items. *)

val is_all_nodes : t -> bool

(** {1 Display} *)

val pp_item : item Fmt.t
val pp : t Fmt.t

val to_display_string : t -> string
(** Space-separated item renderings (nodes serialized as XML). *)
