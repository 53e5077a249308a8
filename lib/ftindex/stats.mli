(** Corpus tf/idf statistics backing the per-entry probabilistic scores of
    paper Section 3.3.  Values are persistent: updates return a new [t]
    sharing everything the document does not touch. *)

type t

val empty : t

val add_document : t -> doc:string -> max_tf:int -> string list -> t
(** Record one more document, given the largest term frequency of any of
    its words and its distinct words; [t] itself is unchanged.
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

val score : t -> doc:string -> tf:int -> idf:float -> float
(** Per-entry score in (0,1] of a word occurring [tf >= 1] times in [doc],
    given the word's {!idf_norm}: bounded tf.idf, monotone in term
    frequency and rarity.  1.0 for unknown documents (neutral). *)

val max_tf : t -> doc:string -> int option
(** The largest term frequency of any word of [doc]; [None] for an unknown
    document. *)

val tf_idf : max_tf:int option -> tf:int -> idf:float -> float
(** {!score} given the document's {!max_tf}, looked up once by a caller
    that scores many runs of one document. *)
