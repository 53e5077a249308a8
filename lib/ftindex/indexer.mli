(** Off-line document preprocessing: build the inverted index. *)

val add_document :
  ?config:Tokenize.Segmenter.config ->
  Inverted.t ->
  uri:string ->
  Xmlkit.Node.t ->
  Inverted.t
(** Tokenize one sealed document, merge its postings and add it to the
    corpus statistics that scores are computed from at query time.
    @raise Invalid_argument on duplicate uri. *)

val index_documents :
  ?config:Tokenize.Segmenter.config ->
  (string * Xmlkit.Node.t) list ->
  Inverted.t
(** Index a corpus: {!add_document} over each document in order. *)

val index_strings :
  ?config:Tokenize.Segmenter.config -> (string * string) list -> Inverted.t
(** Convenience: parse then index XML source strings. *)
