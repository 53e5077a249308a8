(** Dewey node labels ("1.3.1.1"): hierarchical identifiers that encode the
    child-rank path from the document root.  They give a total order
    consistent with document order and O(depth) ancestor/containment tests,
    which is what GalaTex's TokenInfo identifiers and [containsPos] need. *)

type t

val root : t
(** The label of the document root element, ["1"]. *)

val is_root : t -> bool
(** [is_root d] iff [d] is {!root}: the label contains every label of its
    document. *)

val of_list : int list -> t
(** [of_list steps] builds a label from 1-based child ranks.
    @raise Invalid_argument on an empty list or a non-positive step. *)

val to_list : t -> int list
val child : t -> int -> t

val parent : t -> t option
(** [None] on the root label. *)

val depth : t -> int

val compare : t -> t -> int
(** Lexicographic; coincides with document order (ancestors first). *)

val equal : t -> t -> bool

val is_ancestor : t -> t -> bool
(** Strict: [is_ancestor a a = false]. *)

val contains : t -> t -> bool
(** Ancestor-or-self: [contains a b] iff [a] is a prefix of [b]. *)

val to_string : t -> string

val of_string : string -> t
(** @raise Invalid_argument on malformed input. *)

val pp : t Fmt.t
