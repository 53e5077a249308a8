(** Inverted-list entries: TokenInfo + source document. *)

type t = { doc : string; token : Tokenize.Token.t }

val make : doc:string -> Tokenize.Token.t -> t

val word : t -> string
(** Case-folded word, the index key. *)

val abs_pos : t -> int
val node : t -> Xmlkit.Dewey.t
val sentence : t -> int
val para : t -> int

val compare_pos : t -> t -> int
(** Order by (document, absolute position). *)
