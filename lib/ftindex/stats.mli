(** Corpus tf/idf statistics backing the per-entry probabilistic scores of
    paper Section 3.3. *)

type t

val create : unit -> t

val of_documents : (string * Tokenize.Token.t array) list -> t
(** Statistics of a corpus, given each document's token stream.
    @raise Invalid_argument on a duplicate document name. *)

val add_document : t -> doc:string -> Tokenize.Token.t array -> t
(** Record one more document's token stream; [t] itself is unchanged.
    @raise Invalid_argument on a duplicate document name. *)

val remove_document : t -> doc:string -> string list -> t
(** Forget one document exactly, given its distinct words: their document
    frequencies are decremented (entries dropped at zero) and its
    per-document stats removed — the result equals statistics built without
    the document.  No-op for an unknown document. *)

val doc_count : t -> int
val document_frequency : t -> string -> int

val idf_norm : t -> string -> float
(** Normalized inverse document frequency in (0,1]. *)

val score : t -> doc:string -> tf:int -> string -> float
(** Per-entry score in (0,1] of a word occurring [tf >= 1] times in [doc]:
    bounded tf.idf, monotone in term frequency and rarity.  1.0 for unknown
    documents (neutral). *)
