open Xquery.Ast

(* The GalaTex parser/translator (paper Section 3.2.2): every FTContainsExpr
   and ft:score call is replaced by an equivalent composition of fts:*
   XQuery function calls, giving a plain XQuery query that the (full-text
   unaware) engine evaluates against the fts library module:

   - each node of the evaluation context is bound in turn to a fresh
     variable shared by all FTWordsSelection calls, and evaluated alone:
     [E ftcontains S] is [some] node of [E] satisfying [S] (XQuery Full
     Text's FTContainsExpr), and [ft:score(E, S)] is each node's score;
   - match options are resolved (defaults + outer scoping + per-words
     overrides) at translation time and propagated into each
     fts:FTWordsSelection call as an FTMatchOptions descriptor string;
   - each FTWords leaf receives its relative position in the query, consumed
     by fts:FTOrdered. *)

let fresh_ctx_var =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "fts_ctx_%d" !n

(* FTMatchOptions descriptor: a stable, human-readable ["key=value|..."]
   encoding the XQuery module tests with fn:contains (the paper passes
   fts:FTMatchOptions("with stemming") values the same way); it embeds
   explicit stop-word lists. *)
let options_descriptor (r : Match_options.resolved) =
  let case =
    match r.case with
    | Case_insensitive -> "case=insensitive"
    | Case_sensitive -> "case=sensitive"
    | Case_lower -> "case=lower"
    | Case_upper -> "case=upper"
  in
  let stop =
    match r.stop_words with
    | None -> "stop=off"
    | Some set ->
        (* the XQuery module needs the actual words: embed explicit lists,
           recognize the default English list by content *)
        let elements = Tokenize.Stopwords.Set.elements set in
        if elements = List.sort compare Tokenize.Stopwords.default_english then
          "stop=on"
        else "stop=on|stoplist=" ^ String.concat "," elements
  in
  let thesaurus =
    match r.thesaurus with
    | None -> "thesaurus=off"
    | Some spec ->
        (* name__relationship__levels: the resolver builds a pre-expanded
           thesaurus document for exactly this spec *)
        Printf.sprintf "thesaurus=%s__%s__%d"
          (Option.value ~default:"default" spec.Xquery.Ast.th_name)
          (Option.value ~default:"any" spec.Xquery.Ast.th_relationship)
          (Option.value ~default:1 spec.Xquery.Ast.th_levels)
  in
  String.concat "|"
    [
      case;
      (if r.diacritics_sensitive then "diacritics=sensitive" else "diacritics=insensitive");
      (if r.stemming then "stemming=on" else "stemming=off");
      (if r.wildcards then "wildcards=on" else "wildcards=off");
      (if r.special_chars then "special=on" else "special=off");
      stop;
      thesaurus;
      "language=" ^ r.language;
    ]

let anyall_string = function
  | Ft_any -> "any"
  | Ft_all -> "all"
  | Ft_phrase -> "phrase"
  | Ft_any_word -> "any word"
  | Ft_all_words -> "all words"

let unit_string = function
  | Words -> "words"
  | Sentences -> "sentences"
  | Paragraphs -> "paragraphs"

let scope_string = function
  | Same_sentence -> "same sentence"
  | Same_paragraph -> "same paragraph"
  | Different_sentence -> "different sentence"
  | Different_paragraph -> "different paragraph"

let anchor_string = function
  | At_start -> "at start"
  | At_end -> "at end"
  | Entire_content -> "entire content"

let call name args = Call (name, args)
let str s = Literal_string s
let int i = Literal_integer i

(* Translate one FTSelection into an expression producing an fts:AllMatches
   element.  [ctx_var] is the evaluation-context variable; [counter] numbers
   the FTWords leaves; [outer] carries scoped match options; [translate_expr]
   recursively translates embedded XQuery (which may itself contain nested
   full-text expressions, Section 3.2.2). *)
let rec translate_selection ~translate_expr ~ctx_var ~counter ~outer sel =
  let recur = translate_selection ~translate_expr ~ctx_var ~counter in
  match sel with
  | Ft_words { source; anyall; options; weight } ->
      incr counter;
      let resolved = Match_options.resolve_with ~outer options in
      let all_opts = options_descriptor resolved in
      let source_expr =
        match source with
        | Ft_literal s -> str s
        | Ft_expr e -> translate_expr e
      in
      let weight_expr =
        match weight with
        | Some w -> call "fts:checkWeight" [ translate_expr w ]
        | None -> Literal_double 1.0
      in
      call "fts:FTWordsSelection"
        [
          Var ctx_var;
          source_expr;
          str (anyall_string anyall);
          str all_opts;
          int !counter;
          weight_expr;
        ]
  | Ft_with_options (inner, options) ->
      let outer = Match_options.resolve_with ~outer options in
      recur ~outer inner
  | Ft_and (a, b) ->
      let ta = recur ~outer a in
      let tb = recur ~outer b in
      call "fts:FTAnd" [ ta; tb ]
  | Ft_or (a, b) ->
      let ta = recur ~outer a in
      let tb = recur ~outer b in
      call "fts:FTOr" [ ta; tb ]
  | Ft_mild_not (a, b) ->
      let ta = recur ~outer a in
      let tb = recur ~outer b in
      call "fts:FTMildNot" [ ta; tb ]
  | Ft_unary_not a -> call "fts:FTUnaryNot" [ recur ~outer a ]
  | Ft_ordered a -> call "fts:FTOrdered" [ recur ~outer a ]
  | Ft_window (a, n, u) ->
      (* the ambient match options reach the window/distance computation:
         word counting skips stop words when a list is active *)
      call "fts:FTWindow"
        [
          translate_expr n; str (unit_string u); recur ~outer a;
          str (options_descriptor outer);
        ]
  | Ft_distance (a, range, u) -> (
      let unit_e = str (unit_string u) in
      let mo = str (options_descriptor outer) in
      match range with
      | At_most n ->
          call "fts:FTDistanceAtMost"
            [ translate_expr n; unit_e; recur ~outer a; mo ]
      | At_least n ->
          call "fts:FTDistanceAtLeast"
            [ translate_expr n; unit_e; recur ~outer a; mo ]
      | Exactly n ->
          call "fts:FTDistanceExactly"
            [ translate_expr n; unit_e; recur ~outer a; mo ]
      | From_to (lo, hi) ->
          call "fts:FTDistanceFromTo"
            [ translate_expr lo; translate_expr hi; unit_e; recur ~outer a; mo ])
  | Ft_scope (a, kind) ->
      call "fts:FTScope" [ str (scope_string kind); recur ~outer a ]
  | Ft_times (a, range) -> (
      match range with
      | At_least n -> call "fts:FTTimesAtLeast" [ translate_expr n; recur ~outer a ]
      | At_most n -> call "fts:FTTimesAtMost" [ translate_expr n; recur ~outer a ]
      | Exactly n -> call "fts:FTTimesExactly" [ translate_expr n; recur ~outer a ]
      | From_to (lo, hi) ->
          call "fts:FTTimesFromTo"
            [ translate_expr lo; translate_expr hi; recur ~outer a ])
  | Ft_content (a, anchor) ->
      (* the anchor filters its operand's matches against the node *)
      call "fts:FTContent"
        [ str (anchor_string anchor); Var ctx_var; recur ~outer a ]

(* Rewrite a whole expression tree, replacing the two full-text constructs:
   each node of an evaluation context is bound in turn by [some] (for
   ftcontains) or [for] (for ft:score), match options are resolved per
   FTWords leaf into descriptor strings, and leaves are numbered
   left-to-right for FTOrdered. *)
let rec translate_expr e =
  let t = translate_expr in
  match e with
  | Ft_contains { context; selection; ignore_nodes } ->
      let ctx_var = fresh_ctx_var () in
      let counter = ref 0 in
      let am =
        translate_selection ~translate_expr:t ~ctx_var ~counter
          ~outer:Match_options.defaults selection
      in
      let contains_call =
        match ignore_nodes with
        | None -> call "fts:FTContains" [ Var ctx_var; am ]
        | Some ig -> call "fts:FTContainsWithIgnore" [ Var ctx_var; am; t ig ]
      in
      Quantified (Some_q, [ (ctx_var, t context) ], contains_call)
  | Ft_score (context, selection) ->
      let ctx_var = fresh_ctx_var () in
      let counter = ref 0 in
      let am =
        translate_selection ~translate_expr:t ~ctx_var ~counter
          ~outer:Match_options.defaults selection
      in
      let each =
        For_clause { var = ctx_var; positional = None; source = t context }
      in
      Flwor ([ each ], call "fts:FTScore" [ Var ctx_var; am ])
  (* structural recursion *)
  | Literal_string _ | Literal_integer _ | Literal_double _ | Var _
  | Context_item | Root ->
      e
  | Sequence es -> Sequence (List.map t es)
  | Range (a, b) -> Range (t a, t b)
  | If (c, a, b) -> If (t c, t a, t b)
  | Flwor (clauses, body) ->
      let tc = function
        | For_clause { var; positional; source } ->
            For_clause { var; positional; source = t source }
        | Let_clause { var; value } -> Let_clause { var; value = t value }
        | Where_clause w -> Where_clause (t w)
        | Order_by keys -> Order_by (List.map (fun (k, d) -> (t k, d)) keys)
      in
      Flwor (List.map tc clauses, t body)
  | Quantified (q, bindings, cond) ->
      Quantified (q, List.map (fun (v, s) -> (v, t s)) bindings, t cond)
  | Or (a, b) -> Or (t a, t b)
  | And (a, b) -> And (t a, t b)
  | General_cmp (op, a, b) -> General_cmp (op, t a, t b)
  | Value_cmp (op, a, b) -> Value_cmp (op, t a, t b)
  | Node_is (a, b) -> Node_is (t a, t b)
  | Arith (op, a, b) -> Arith (op, t a, t b)
  | Neg a -> Neg (t a)
  | Union (a, b) -> Union (t a, t b)
  | Path (root, steps) ->
      let ts (s : step) = { s with predicates = List.map t s.predicates } in
      Path (Option.map t root, List.map ts steps)
  | Filter (primary, preds) -> Filter (t primary, List.map t preds)
  | Call (name, args) -> Call (name, List.map t args)
  | Elem_constructor { name; attrs; content } ->
      let tc = function
        | Const_text s -> Const_text s
        | Const_expr e -> Const_expr (t e)
      in
      Elem_constructor
        {
          name;
          attrs = List.map (fun (n, parts) -> (n, List.map tc parts)) attrs;
          content = List.map tc content;
        }
  | Computed_element (n, c) -> Computed_element (t n, t c)
  | Computed_attribute (n, c) -> Computed_attribute (t n, t c)
  | Computed_text c -> Computed_text (t c)

let translate_query (q : query) =
  let translate_function (f : function_def) : function_def =
    { fname = f.fname; params = f.params; body = translate_expr f.body }
  in
  {
    functions = List.map translate_function q.functions;
    variables = List.map (fun (v, e) -> (v, translate_expr e)) q.variables;
    body = translate_expr q.body;
  }

(* Does an expression still contain full-text constructs?  (After
   translation the answer must be no — tested.) *)
let has_fulltext =
  Xquery.Ast.exists_expr (function
    | Ft_contains _ | Ft_score _ -> true
    | _ -> false)
