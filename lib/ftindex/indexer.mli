(** Off-line document preprocessing: build the inverted index. *)

val index_tokenized :
  (string * Xmlkit.Node.t * Tokenize.Token.t array) list -> Inverted.t
(** Build an index from already tokenized documents (uri, sealed root,
    token stream in position order), in one pass over the streams.  The
    one bulk builder: {!index_documents} tokenizes and calls it, and a
    snapshot load calls it on the streams its document segments hold.
    @raise Invalid_argument on duplicate uri. *)

val add_document :
  ?config:Tokenize.Segmenter.config ->
  Inverted.t ->
  uri:string ->
  Xmlkit.Node.t ->
  Inverted.t
(** Tokenize one sealed document, merge its postings and add it to the
    corpus statistics that scores are computed from at query time; the
    incremental path of live updates.  The result equals
    {!index_documents} over the extended document list.
    @raise Invalid_argument on duplicate uri. *)

val index_documents :
  ?config:Tokenize.Segmenter.config ->
  (string * Xmlkit.Node.t) list ->
  Inverted.t
(** Index a corpus: tokenize each document in order, then
    {!index_tokenized}. *)

val index_strings :
  ?config:Tokenize.Segmenter.config -> (string * string) list -> Inverted.t
(** Convenience: parse then index XML source strings. *)
