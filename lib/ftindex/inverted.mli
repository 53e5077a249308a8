(** Corpus-level inverted index: word -> document -> positions (TokenInfo),
    plus the distinct-word list used by match-option expansion. *)

module Doc_map : Map.S with type key = string

type run = Posting.t array
(** One word's positions inside one document, ascending by absolute
    position.  Runs are shared between index versions: never mutate one. *)

type t
(** One index version.  Every table is a persistent map: an update returns
    a new version sharing all it does not touch, and the old version stays
    valid for its readers. *)

val empty : unit -> t

val add_document :
  t -> uri:string -> Xmlkit.Node.t -> Tokenize.Token.t array -> t * string list
(** Add one sealed document given its token stream (in position order): its
    runs join its words, it goes last in document order, and the corpus
    statistics count it.  Also returns the words it put on the
    distinct-word list (no other document held them), in no particular
    order.  Allocates O(words in the document x log V).
    @raise Invalid_argument on a duplicate uri. *)

val documents : t -> (string * Xmlkit.Node.t) list
(** (uri, root) in document order: the order documents were added in, a
    replaced document counting as added last. *)

val document_roots : t -> Xmlkit.Node.t list
(** The roots of {!documents}, in the same order. *)

val first_document : t -> (string * Xmlkit.Node.t) option
(** The head of {!documents}, in O(log documents). *)

val stats : t -> Stats.t

val total_postings : t -> int
(** Total number of tokens indexed (corpus word count). *)

val remove_document : t -> uri:string -> t * string list
(** Remove one document with exact postings reclamation: its run leaves
    each of its own words (no other word is visited), words with no
    remaining postings leave the distinct-word list, its token stream and
    statistics are forgotten: the result equals an index built without the
    document.  Also returns the words that left the distinct-word list,
    in no particular order.  No-op for an unknown uri. *)

val word_delta :
  left:string list -> entered:string list -> string list * string list
(** [(added, removed)], each sorted: the net change to the distinct-word
    list of a remove whose words [left] it, followed by an add whose
    words [entered] it.  A word that left and came back is in neither. *)

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

val scorer : t -> string -> doc:string -> run -> float
(** [scorer t word] is {!score} for the runs of [word] (case-folded), with
    the word's document frequency looked up once rather than per run. *)

val idf : t -> string -> float
(** {!Stats.idf_norm} of a word (case-folded) under this version's
    statistics: the factor {!scorer} shares across the word's runs. *)

val map_within :
  read:int ref ->
  run -> Xmlkit.Dewey.t list -> (Posting.t -> 'a) -> 'a list -> 'a list
(** [map_within ~read run nodes f tail] is [f] of every entry of [run]
    inside any of [nodes] (nodes of the run's document), each entry once,
    in position order, in front of [tail]: two binary searches per node,
    none for a node labelled {!Xmlkit.Dewey.root}, whose slice is the
    whole run; for a single node no allocation beyond the result.  It adds the number of entries it read, the slices'
    total, to [read]. *)

val map_node :
  read:int ref ->
  run -> Xmlkit.Dewey.t -> (Posting.t -> 'a) -> 'a list -> 'a list
(** [map_within] for one node, with no list of nodes to build. *)

val run_within : run -> Xmlkit.Dewey.t list -> Posting.t list
(** [map_within] into a fresh list, the count dropped. *)

val distinct_words : t -> string list
(** Sorted distinct-word list ("list_distinct_words.xml" in the paper). *)

val filter_words : t -> (string -> bool) -> string list
(** The distinct words satisfying a predicate, in {!distinct_words} order. *)

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
