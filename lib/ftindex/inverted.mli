(** Corpus-level inverted index: word -> document -> positions (TokenInfo),
    plus the distinct-word list used by match-option expansion. *)

module Doc_map : Map.S with type key = string

type run = Posting.t array
(** One word's positions inside one document, ascending by absolute
    position.  Runs are shared between index versions: never mutate one. *)

type t = private {
  documents : (string * Xmlkit.Node.t) list;
  roots : (int, string * Xmlkit.Node.t) Hashtbl.t;
  postings : (string, run Doc_map.t) Hashtbl.t;
  doc_tokens : (string, Tokenize.Token.t array) Hashtbl.t;
  stats : Stats.t;
  total_postings : int;
}

val make :
  documents:(string * Xmlkit.Node.t) list ->
  postings:(string, run Doc_map.t) Hashtbl.t ->
  doc_tokens:(string, Tokenize.Token.t array) Hashtbl.t ->
  stats:Stats.t ->
  total_postings:int ->
  t
(** Assemble an index from its parts; derives the node -> document table
    from [documents].  Every run must be non-empty and ascending. *)

val empty : unit -> t
(** A fresh empty index (internal tables are not shared). *)

val documents : t -> (string * Xmlkit.Node.t) list
val stats : t -> Stats.t

val total_postings : t -> int
(** Total number of tokens indexed (corpus word count). *)

val remove_document : t -> uri:string -> t
(** Remove one document with exact postings reclamation: its run leaves
    each of its own words (no other word is visited), words with no
    remaining postings leave the distinct-word list, its token stream and
    statistics are forgotten: the result equals an index built without the
    document.  No-op for an unknown uri. *)

val document_root : t -> string -> Xmlkit.Node.t option

val postings : t -> string -> Posting.t list
(** All positions of a word (case-folded before lookup), sorted by
    (document, absolute position) — documents in uri order, whatever order
    they were indexed in. *)

val postings_of_doc : t -> doc:string -> string -> run
(** One document's run of a word (case-folded before lookup), read without
    touching any other document; [[||]] when the word does not occur. *)

val runs : t -> string -> run Doc_map.t
(** Every document's run of a word (case-folded before lookup). *)

val score : t -> doc:string -> run -> float
(** The Section 3.3 score shared by every entry of [run], [doc]'s run of
    one word, under this index version's statistics. *)

val run_within : run -> Xmlkit.Dewey.t list -> Posting.t list
(** The entries of a run inside any of the given nodes of its document, each
    once, in position order: one binary search per node. *)

val distinct_words : t -> string list
(** Sorted distinct-word list ("list_distinct_words.xml" in the paper). *)

val distinct_word_count : t -> int

val position_in_node :
  t -> Posting.t -> doc:string -> node_dewey:Xmlkit.Dewey.t -> bool
(** The paper's [containsPos]: Dewey containment within one document. *)

val postings_in :
  t -> doc:string -> node_dewey:Xmlkit.Dewey.t -> string -> Posting.t list
(** The paper's [getPositions]: positions of a word inside one context
    node, read from that document's run alone. *)

val doc_of_node : t -> Xmlkit.Node.t -> string option
(** Recover the indexed document a node belongs to (by tree identity), in
    time independent of the number of documents.  [None] for nodes of
    constructed trees and of roots no longer indexed. *)

val tokens_of_doc : t -> doc:string -> Tokenize.Token.t array
(** The full token stream of one document in position order. *)

val node_extent :
  t -> doc:string -> node_dewey:Xmlkit.Dewey.t -> (int * int) option
(** First and last absolute word position inside a node ([None] when the
    node contains no words).  Token positions of a node are contiguous. *)
