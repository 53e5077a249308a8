(** XML externalization of inverted lists and the distinct-word list in the
    paper's format (Figure 5(b), Section 3.2.3.2).  The translated all-XQuery
    evaluation path reads these documents with [fn:doc]. *)

val inverted_list_document : Inverted.t -> string -> Xmlkit.Node.t
(** ["invlist_<word>.xml"]: one [fts:InvertedList] element whose
    [fts:TokenInfo] children carry word / doc / prefixPos (Dewey) / absPos /
    sentence / para / score. *)

val distinct_words_document : Inverted.t -> Xmlkit.Node.t
(** ["list_distinct_words.xml"]: [ListDistinctWords/invlist/@word]. *)

val export_all : Inverted.t -> Xmlkit.Node.t list
(** The distinct-word document followed by one inverted-list document per
    word. *)

val postings_of_inverted_list : Xmlkit.Node.t -> string * Posting.t list
(** Parse an inverted-list document back; inverse of
    {!inverted_list_document}.  @raise Invalid_argument on malformed input. *)

val words_of_distinct_list : Xmlkit.Node.t -> string list

val posting_of_token_info : Xmlkit.Node.t -> Posting.t
(** Parse one [fts:TokenInfo] element; a [score] attribute is ignored.
    @raise Invalid_argument on missing attributes. *)

val token_info_element : Posting.t -> Xmlkit.Node.t
(** Unsealed [fts:TokenInfo] element for one posting (no score); the
    [word] attribute carries the surface form. *)
