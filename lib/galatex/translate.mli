(** The GalaTex parser/translator (paper Section 3.2.2): rewrite every
    FTContainsExpr and ft:score call into a composition of fts:* XQuery
    function calls, yielding a plain XQuery query for the full-text-unaware
    engine. *)

val translate_query : Xquery.Ast.query -> Xquery.Ast.query
(** Translate body, function bodies and global variables. *)

val has_fulltext : Xquery.Ast.expr -> bool
(** Does the expression still contain ftcontains / ft:score?  False on every
    translator output (tested). *)
