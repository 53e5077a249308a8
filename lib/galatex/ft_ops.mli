(** Materialized semantics of every FTSelection on AllMatches (paper Section
    3.2.3.1) with the Section 3.3 score formulas.  {!Ft_eval} runs its
    plans over the per-match functions, one match at a time where a
    node's verdict can stop early. *)

type range =
  | Exactly of int
  | At_least of int
  | At_most of int
  | From_to of int * int

type unit_ = Words | Sentences | Paragraphs

val clamp_score : float -> float
(** Clamp into (0,1] (epsilon at the bottom). *)

val check_weight : float -> float
(** An FTWords weight, unchanged.
    @raise Xquery.Errors.Error ([FTDY0016]) outside [0, 1]. *)

(** {1 Word counting (the paper's wordDistance abstract function)} *)

type counting
(** How words-unit distances and spans are counted: with an active stop-word
    list they skip stop words (Section 3.2.3.2). *)

val plain_counting : counting
(** Count every word. *)

val counting : ?stops:Tokenize.Stopwords.Set.t -> Env.t -> counting

val words_between : counting -> doc:string -> int -> int -> int
(** Counted words strictly between two absolute positions of one document. *)

val word_span : counting -> doc:string -> int -> int -> int
(** Counted span of a closed position interval (both endpoints count). *)

(** {1 Context sites} *)

type site = {
  doc : string;
  max_tf : int option;
      (** the document's {!Ftindex.Stats.max_tf}: the Section 3.3 score of
          each of its runs divides by it *)
  dewey : Xmlkit.Dewey.t;
}
(** A context node resolved against the index once: the document it
    belongs to and its Dewey label. *)

val locate : Env.t -> Xmlkit.Node.t -> site option
(** [None] for a node of no indexed document (a constructed tree, or a
    replaced document's old root). *)

val sites : Env.t -> Xmlkit.Node.t list -> site list
(** The nodes that {!locate} resolves, in order. *)

(** {1 FTWords} *)

type within = (site * Xmlkit.Dewey.t list) list
(** An evaluation context as the leaves read it: its documents in uri
    order, each as one of its sites with the Dewey labels of all its
    context nodes. *)

val within_sites : site list -> within
(** Group sites by document. *)

val phrase_tokens : Match_options.resolved -> string -> string list
(** Tokenize a search phrase; under wildcards / special characters the
    pattern characters stay inside the tokens (whitespace split only). *)

type phrase = (int * Match_options.expansion) list
(** A search phrase compiled against the index: its tokens that are not
    stop words (under the active stop-word list), in phrase order, each
    expanded under the options ({!Match_options.expand}) and paired with
    the number of dropped stop tokens before it, which the phrase allows
    as a gap. *)

val phrase_expansions : Env.t -> Match_options.resolved -> string -> phrase
(** {!phrase_tokens}, each expanded, stop words dropped. *)

type scope =
  | Node of site  (** one located context node *)
  | Context of within  (** the located context nodes, by document *)
  | Everywhere  (** no context: every document's whole runs *)
(** Where a leaf reads its entries. *)

val join_phrase :
  (Ftindex.Posting.t * float) list ->
  (int * (Ftindex.Posting.t * float) array) list ->
  (Ftindex.Posting.t * float) list list
(** [join_phrase first followers]: the occurrences that extend an entry of
    [first] through every follower [(gap, entries)] in turn, the follower's
    entry lying [1] to [gap + 1] positions after the previous one in the
    same document (the nearest wins).  Each [entries] ascends by (document,
    position); the join binary-searches it. *)

val phrase_matches :
  Xquery.Limits.governor ->
  scope ->
  query_pos:int ->
  weight:float option ->
  phrase ->
  All_matches.match_ list
(** One Match per occurrence of a phrase (consecutive positions; dropped
    stop tokens allow gaps), scored by the Section 3.3 scores of its
    positions.  The [scope] restricts positions to the evaluation context,
    like the paper's getTokenInfo.  The governor accounts every
    inverted-list entry read (before filtering) as [postings_read]; the
    reads stop at the first token with no entries in the scope. *)

(** {1 Boolean connectives} *)

val and_match : All_matches.match_ -> All_matches.match_ -> All_matches.match_
(** One match of a conjunction: merged includes, both sides' excludes, the
    product score. *)

val ft_unary_not : All_matches.t -> All_matches.t
(** DNF negation: one flipped entry chosen from every input match. *)

val ft_mild_not : All_matches.t -> All_matches.t -> All_matches.t
(** "A not in B": drop matches of A whose include positions occur in B. *)

(** {1 Position filters} *)

val ordered_ok : All_matches.match_ -> bool

val distance_match :
  ?counting:counting -> range -> unit_ -> All_matches.match_ ->
  All_matches.match_ option

val window_match :
  ?counting:counting -> int -> unit_ -> All_matches.match_ ->
  All_matches.match_ option

val scope_ok : Xquery.Ast.ft_scope_kind -> All_matches.match_ -> bool

val ft_times : range -> All_matches.t -> All_matches.t
(** "occurs ... times" via consecutive windows of occurrences (a node's
    positions are contiguous in document order, so this covers every
    per-node count without the exponential subset construction).  A
    match's occurrence key is its first include in (document, position)
    order: matches are grouped by the key's document and windowed in key
    position order, ties keeping input order. *)

(** {1 Approximate variants (Section 3.3's closing direction)} *)

val distance_match_approx :
  ?counting:counting -> range -> unit_ -> All_matches.match_ ->
  All_matches.match_ option

val window_match_approx :
  ?counting:counting -> int -> unit_ -> All_matches.match_ ->
  All_matches.match_ option
(** Keep a failing match with a score penalized by how far it misses. *)

(** {1 FTContains (satisfiesMatch)} *)

val satisfies :
  ?includes_inside:bool ->
  Env.t ->
  site ->
  Xquery.Ast.ft_anchor list ->
  All_matches.match_ ->
  bool
(** [satisfies env site anchors m]: every include inside the node, no
    exclude inside it, anchors hold.  With [includes_inside] (default
    false) the caller vouches that every include lies inside the node —
    true when the selection was evaluated within that node alone
    ([within_sites [site]]) — and only excludes and anchors are
    checked. *)

val site_matches :
  ?includes_inside:bool -> Env.t -> site -> All_matches.t -> All_matches.match_ list

val site_satisfies : ?includes_inside:bool -> Env.t -> site -> All_matches.t -> bool
val matches_for_node : Env.t -> Xmlkit.Node.t -> All_matches.t -> All_matches.match_ list
val node_satisfies : Env.t -> Xmlkit.Node.t -> All_matches.t -> bool

val ft_contains : Env.t -> site list -> All_matches.t -> bool
(** Some site satisfies some match. *)

val apply_ignore : Env.t -> Xmlkit.Node.t list -> All_matches.t -> All_matches.t
(** The FTIgnoreOption: drop matches relying on positions inside ignored
    subtrees; waive excludes there. *)

val in_range : range -> int -> bool
val unit_pos : unit_ -> All_matches.entry -> int
