(** Off-line document preprocessing: build the inverted index. *)

val index_tokenized :
  (string * Xmlkit.Node.t * Tokenize.Token.t array) list -> Inverted.t
(** Build an index from already tokenized documents (uri, sealed root,
    token stream in position order), adding them in order with
    {!Inverted.add_document}.  The one bulk builder: {!index_documents} and a snapshot load both
    tokenize with {!tokenize} and call it.
    @raise Invalid_argument on duplicate uri. *)

val tokenize :
  ?config:Tokenize.Segmenter.config -> Xmlkit.Node.t -> Tokenize.Token.t array
(** A sealed document's token stream, as {!index_documents} indexes it. *)

val add_document :
  ?config:Tokenize.Segmenter.config ->
  Inverted.t ->
  uri:string ->
  Xmlkit.Node.t ->
  Inverted.t * string list
(** Tokenize one sealed document, merge its postings and add it to the
    corpus statistics that scores are computed from at query time; the
    incremental path of live updates.  The index equals
    {!index_documents} over the extended document list; the words are
    those the document put on the distinct-word list
    ({!Inverted.add_document}).
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
