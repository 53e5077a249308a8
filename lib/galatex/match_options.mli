(** Match options (paper Sections 3.1.4, 3.2.3.2): resolution of the option
    stack and expansion of search words against the distinct-word list. *)

type resolved = {
  case : Xquery.Ast.ft_case;
  diacritics_sensitive : bool;
  stemming : bool;
  wildcards : bool;
  special_chars : bool;
  stop_words : Tokenize.Stopwords.Set.t option;
  thesaurus : Xquery.Ast.ft_thesaurus option;
      (** [None] = off; the spec carries name / relationship / level bound *)
  language : string;
}

val defaults : resolved
(** The spec defaults (Section 3.1.4): case insensitive, diacritics
    insensitive, no stemming / wildcards / special characters / stop words /
    thesaurus, English. *)

val resolve : Xquery.Ast.ft_match_option list -> resolved
(** Apply options over the defaults, in order. *)

val resolve_with :
  outer:resolved -> Xquery.Ast.ft_match_option list -> resolved
(** Apply options over an enclosing scope; inner options override outer ones
    (the paper's "with stemming" overriding "without stemming"). *)

val is_stop_word : resolved -> string -> bool
(** Under the active stop list (false when none is active). *)

val signature : resolved -> string
(** Stable key for the expansion cache. *)

type expansion = {
  token : string;
  is_stop : bool;  (** drop from phrases / skip in counting *)
  keys : string list;  (** matching distinct document words (index keys) *)
  key_runs : (Ftindex.Inverted.run Ftindex.Inverted.Doc_map.t * float) list;
      (** each key's runs and {!Ftindex.Inverted.idf}, looked up once per
          expansion rather than once per context node *)
  stats : Ftindex.Stats.t;  (** the statistics those runs are scored under *)
  accept : Ftindex.Posting.t -> bool;
      (** surface-form filter (case sensitivity) on individual postings *)
  accepts_all : bool;
      (** [accept] holds for every posting (no surface-form constraint: the
          case-insensitive default), so readers may skip it *)
}

val expand : Env.t -> resolved -> string -> expansion
(** The paper's applyMatchOption: expand one search word to the set of
    document words it matches, scanning the distinct-word list with the
    active predicates (equality / stemming / wildcard / special-character
    regex / thesaurus terms / diacritics folding).  Memoized per
    (token, options). *)
