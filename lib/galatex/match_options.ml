open Xquery.Ast

(* Match options (paper Sections 3.1.4, 3.2.3.2).  A match option "has the
   effect of expanding one search word to a set of words that becomes the
   new set of search words" — the expansion is computed against the
   distinct-word list from preprocessing, exactly the paper's technique:
   case folding via fn:lower-case-style comparison, wildcards and special
   characters via the regular-expression technique, stemming via the Porter
   stemmer, thesaurus via term-relationship lookup.  Stop words do not
   expand words; they mark query tokens that distance/window computation
   skips. *)

type resolved = {
  case : ft_case;
  diacritics_sensitive : bool;
  stemming : bool;
  wildcards : bool;
  special_chars : bool;
  stop_words : Tokenize.Stopwords.Set.t option;
  thesaurus : Xquery.Ast.ft_thesaurus option;  (** None = off *)
  language : string;
}

(* Spec defaults (Section 3.1.4). *)
let defaults =
  {
    case = Case_insensitive;
    diacritics_sensitive = false;
    stemming = false;
    wildcards = false;
    special_chars = false;
    stop_words = None;
    thesaurus = None;
    language = "en";
  }

let apply_option resolved = function
  | Opt_case c -> { resolved with case = c }
  | Opt_diacritics sensitive -> { resolved with diacritics_sensitive = sensitive }
  | Opt_stemming on -> { resolved with stemming = on }
  | Opt_wildcards on -> { resolved with wildcards = on }
  | Opt_special_chars on -> { resolved with special_chars = on }
  | Opt_stop_words None -> { resolved with stop_words = None }
  | Opt_stop_words (Some Stop_default) ->
      {
        resolved with
        stop_words =
          Some (Tokenize.Stopwords.Set.of_list Tokenize.Stopwords.default_english);
      }
  | Opt_stop_words (Some (Stop_list words)) ->
      { resolved with stop_words = Some (Tokenize.Stopwords.Set.of_list words) }
  | Opt_thesaurus t -> { resolved with thesaurus = t }
  | Opt_language l -> { resolved with language = l }

let resolve options = List.fold_left apply_option defaults options

(* Options are propagated outside-in: outer Ft_with_options wrappers apply
   first, inner (per-words) options override (paper Section 3.2.2: explicit
   "with stemming" overrides an outer "without stemming"). *)
let resolve_with ~outer options = List.fold_left apply_option outer options

let is_stop_word resolved word =
  match resolved.stop_words with
  | None -> false
  | Some set -> Tokenize.Stopwords.Set.mem set word

(* A stable signature for the expansion cache. *)
let signature resolved =
  let case =
    match resolved.case with
    | Case_insensitive -> "ci"
    | Case_sensitive -> "cs"
    | Case_lower -> "cl"
    | Case_upper -> "cu"
  in
  Printf.sprintf "%s|%b|%b|%b|%b|%s|%s" case resolved.diacritics_sensitive
    resolved.stemming resolved.wildcards resolved.special_chars
    (match resolved.thesaurus with
    | None -> "-"
    | Some t ->
        Printf.sprintf "%s/%s/%d"
          (Option.value ~default:"default" t.Xquery.Ast.th_name)
          (Option.value ~default:"*" t.Xquery.Ast.th_relationship)
          (Option.value ~default:1 t.Xquery.Ast.th_levels))
    resolved.language

(* The expansion of one query token under the resolved options: which
   distinct document words (index keys) it matches, plus a posting-level
   predicate for surface-form constraints (case sensitivity operates on the
   original surface form, which the index keys — case-folded — erase). *)
type expansion = {
  token : string;
  is_stop : bool;
  keys : string list;
  key_runs : (Ftindex.Inverted.run Ftindex.Inverted.Doc_map.t * float) list;
  stats : Ftindex.Stats.t;
  accept : Ftindex.Posting.t -> bool;
  accepts_all : bool;
}

let fold_diac sensitive w =
  if sensitive then w else Tokenize.Normalize.strip_diacritics w

(* Key-level predicate: does a distinct word (already case-folded) match
   any of the query terms under the options, ignoring surface case?  The
   term side (case and diacritic folding, its stem, its compiled pattern)
   is computed once here, not once per distinct word. *)
let key_matcher resolved terms =
  let fold = fold_diac resolved.diacritics_sensitive in
  let terms_cmp =
    List.map (fun term -> fold (Tokenize.Normalize.casefold term)) terms
  in
  let pattern_or_equal to_pattern =
    let tests =
      List.map
        (fun term_cmp ->
          match Tokenize.Regex.compile (to_pattern term_cmp) with
          | re -> Tokenize.Regex.matches_whole re
          | exception Tokenize.Regex.Parse_error _ -> String.equal term_cmp)
        terms_cmp
    in
    fun dw ->
      let dw_cmp = fold dw in
      List.exists (fun test -> test dw_cmp) tests
  in
  if resolved.wildcards then pattern_or_equal Fun.id
  else if resolved.special_chars then
    pattern_or_equal Tokenize.Normalize.special_chars_to_pattern
  else if resolved.stemming then
    let stems = List.map Tokenize.Porter.stem terms_cmp in
    fun dw ->
      let stem = Tokenize.Porter.stem (fold dw) in
      List.exists (String.equal stem) stems
  else fun dw ->
    let dw_cmp = fold dw in
    List.exists (String.equal dw_cmp) terms_cmp

(* Surface-level predicate for case-sensitive comparisons; [None] when every
   surface is accepted.  With stemming or wildcards the comparison is
   inherently case-folded and every surface is accepted. *)
let surface_predicate resolved term =
  match resolved.case with
  | Case_insensitive -> None
  | Case_sensitive ->
      if resolved.stemming || resolved.wildcards then None
      else
        let expect = fold_diac resolved.diacritics_sensitive term in
        Some
          (fun (p : Ftindex.Posting.t) ->
            fold_diac resolved.diacritics_sensitive
              p.Ftindex.Posting.token.Tokenize.Token.word
            = expect)
  | Case_lower ->
      Some
        (fun (p : Ftindex.Posting.t) ->
          let surface = p.Ftindex.Posting.token.Tokenize.Token.word in
          surface = Tokenize.Normalize.casefold surface)
  | Case_upper ->
      Some
        (fun (p : Ftindex.Posting.t) ->
          let surface = p.Ftindex.Posting.token.Tokenize.Token.word in
          surface = String.uppercase_ascii surface)

let thesaurus_terms env resolved term =
  match resolved.thesaurus with
  | None -> [ term ]
  | Some spec -> (
      match Env.find_thesaurus env spec.Xquery.Ast.th_name with
      | None -> [ term ]
      | Some th ->
          Tokenize.Thesaurus.lookup th
            ?relationship:spec.Xquery.Ast.th_relationship
            ?levels:spec.Xquery.Ast.th_levels term)

let expand env resolved token =
  let is_stop = is_stop_word resolved token in
  let terms = thesaurus_terms env resolved token in
  let cache_key = String.concat "\x00" (token :: signature resolved :: terms) in
  (* on a miss, the paper's loop over ListDistinctWords/invlist/@word *)
  let keys = Env.cached env cache_key (fun () -> key_matcher resolved terms) in
  let accepts = List.map (surface_predicate resolved) terms in
  let accepts_all = List.exists Option.is_none accepts in
  let accept p =
    List.exists (function None -> true | Some f -> f p) accepts
  in
  let index = Env.index env in
  let key_runs =
    List.map
      (fun key ->
        (Ftindex.Inverted.runs index key, Ftindex.Inverted.idf index key))
      keys
  in
  {
    token;
    is_stop;
    keys;
    key_runs;
    stats = Ftindex.Inverted.stats index;
    accept;
    accepts_all;
  }
