(** The GalaTex XQuery library module (paper Figure 4, upper right): every
    FTSelection primitive as an XQuery function over the XML AllMatches
    representation, plus the engine-side primitives GalaTex inherits from
    Galax (the Porter stemmer, Dewey access, word-distance counting) and the
    fn:doc resolver that serves the corpus and the generated index
    documents. *)

val library_source : string
(** The fts module, in XQuery.  Mirrors the code of Section 3.2.3.1
    (FTWordsSelection / FTAnd / FTWordDistance... / FTContains /
    satisfiesMatch / applyMatchOption / FTScore). *)

val register_primitives : Xquery.Context.t -> Env.t -> unit
(** [fts:deweyOf], [fts:docOf], [fts:nodeFirstPos], [fts:nodeLastPos],
    [fts:wordDistance], [fts:wordSpan], [galax:stem],
    [fts:stripDiacritics], [fts:specialCharsPattern]. *)

val make_resolver : Env.t -> string -> Xmlkit.Node.t option
(** fn:doc resolution: corpus documents by uri, and generated-on-demand
    (cached) ["list_distinct_words.xml"], ["invlist_<word>.xml"],
    ["stopwords_default.xml"], ["thesaurus_<name>.xml"]. *)

val setup_context :
  ?governor:Xquery.Limits.governor ->
  ?prepare:(Xquery.Context.t -> Xquery.Context.t) ->
  Env.t ->
  Xquery.Ast.query ->
  Xquery.Context.t
(** A context ready to run translated queries: fn: builtins, primitives, the
    fts module, the resolver, then [prepare] (as in
    {!Xquery.Eval.setup_context}), then the query's own prolog. *)
