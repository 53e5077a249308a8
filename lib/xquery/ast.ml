(* Abstract syntax for the combined XQuery + Full-Text grammar.  The XQuery
   expression language and the FTSelection language are mutually recursive
   (a full-text selection can embed an XQuery expression as its word source,
   and ftcontains is a first-class XQuery expression — paper Section 3.2.2),
   so both live here. *)

type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Self
  | Attribute
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Following_sibling
  | Preceding_sibling
  | Following
  | Preceding

type node_test =
  | Name_test of string  (** element/attribute name, "*" for any *)
  | Kind_text
  | Kind_node
  | Kind_comment
  | Kind_element of string option
  | Kind_document

type comparison_op = Eq | Ne | Lt | Le | Gt | Ge
type arith_op = Add | Sub | Mul | Div | Idiv | Mod

(* --- full-text selections (paper Section 2.1) --- *)

type ft_range =
  | Exactly of expr
  | At_least of expr
  | At_most of expr
  | From_to of expr * expr

and ft_unit = Words | Sentences | Paragraphs

and ft_scope_kind =
  | Same_sentence
  | Same_paragraph
  | Different_sentence
  | Different_paragraph

and ft_anchor = At_start | At_end | Entire_content

and ft_case = Case_insensitive | Case_sensitive | Case_lower | Case_upper

and ft_stop_words =
  | Stop_default  (** "with default stop words" *)
  | Stop_list of string list  (** explicit parenthesized list *)

and ft_match_option =
  | Opt_case of ft_case
  | Opt_diacritics of bool  (** true = sensitive *)
  | Opt_stemming of bool
  | Opt_wildcards of bool  (** "with wildcards" / regular expressions *)
  | Opt_special_chars of bool
  | Opt_stop_words of ft_stop_words option  (** None = without stop words *)
  | Opt_thesaurus of ft_thesaurus option
      (** None = "without thesaurus"; Some spec = "with thesaurus ..." *)
  | Opt_language of string

and ft_thesaurus = {
  th_name : string option;  (** None = the default thesaurus *)
  th_relationship : string option;  (** e.g. "synonym", "broader term" *)
  th_levels : int option;  (** "at most N levels" *)
}

and ft_anyall = Ft_any | Ft_all | Ft_phrase | Ft_any_word | Ft_all_words

and ft_words_source =
  | Ft_literal of string
  | Ft_expr of expr  (** embedded XQuery expression producing search strings *)

and ft_selection =
  | Ft_words of {
      source : ft_words_source;
      anyall : ft_anyall;
      options : ft_match_option list;
      weight : expr option;
    }
  | Ft_and of ft_selection * ft_selection
  | Ft_or of ft_selection * ft_selection
  | Ft_mild_not of ft_selection * ft_selection  (** "not in" *)
  | Ft_unary_not of ft_selection
  | Ft_ordered of ft_selection
  | Ft_window of ft_selection * expr * ft_unit
  | Ft_distance of ft_selection * ft_range * ft_unit
  | Ft_scope of ft_selection * ft_scope_kind
  | Ft_times of ft_selection * ft_range
  | Ft_content of ft_selection * ft_anchor
  | Ft_with_options of ft_selection * ft_match_option list
      (** match options scoped over a whole sub-selection, to be propagated
          down to the Ft_words leaves (paper Section 3.2.2) *)

(* --- XQuery expressions --- *)

and step = { axis : axis; test : node_test; predicates : expr list }

and flwor_clause =
  | For_clause of { var : string; positional : string option; source : expr }
  | Let_clause of { var : string; value : expr }
  | Where_clause of expr
  | Order_by of (expr * bool) list  (** true = descending *)

and quantifier = Some_q | Every_q

and constructor_content =
  | Const_text of string
  | Const_expr of expr  (** enclosed { expr } *)

and expr =
  | Literal_string of string
  | Literal_integer of int
  | Literal_double of float
  | Var of string
  | Context_item
  | Sequence of expr list  (** comma operator; [] is the empty sequence () *)
  | Range of expr * expr  (** "1 to 10" *)
  | If of expr * expr * expr
  | Flwor of flwor_clause list * expr
  | Quantified of quantifier * (string * expr) list * expr
  | Or of expr * expr
  | And of expr * expr
  | General_cmp of comparison_op * expr * expr  (** = != < <= > >= *)
  | Value_cmp of comparison_op * expr * expr  (** eq ne lt le gt ge *)
  | Node_is of expr * expr
  | Arith of arith_op * expr * expr
  | Neg of expr
  | Union of expr * expr
  | Path of expr option * step list
      (** None root = relative path (steps start from the context item);
          Some e = path rooted at e; the distinguished expr Root means "/" *)
  | Root  (** leading "/" : the document root of the context node *)
  | Filter of expr * expr list  (** primary expression with predicates *)
  | Call of string * expr list
  | Elem_constructor of {
      name : string;
      attrs : (string * constructor_content list) list;
      content : constructor_content list;
    }
  | Computed_element of expr * expr
      (** [element {name-expr} {content-expr}]; a literal name is a string
          literal *)
  | Computed_attribute of expr * expr
  | Computed_text of expr
  | Ft_contains of {
      context : expr;
      selection : ft_selection;
      ignore_nodes : expr option;  (** "without content Expr" *)
    }
  | Ft_score of expr * ft_selection
      (** ft:score($ctx, FTSelectionWithWeights) — the language's only
          second-order function (paper Section 2.2) *)

type function_def = {
  fname : string;
  params : string list;
  body : expr;
}

(* A parsed query: prolog function/variable declarations plus the body. *)
type query = {
  functions : function_def list;
  variables : (string * expr) list;
  body : expr;
}

let query ?(functions = []) ?(variables = []) body =
  { functions; variables; body }

(* [exists_expr p e]: [p] holds of [e] or of an expression anywhere inside
   it, step predicates, FLWOR clauses, constructor content and the
   expressions embedded in full-text selections included. *)
let rec exists_expr p e =
  p e
  ||
  let sub = exists_expr p in
  let opt = function Some e -> sub e | None -> false in
  match e with
  | Literal_string _ | Literal_integer _ | Literal_double _ | Var _
  | Context_item | Root ->
      false
  | Sequence es | Call (_, es) -> List.exists sub es
  | Range (a, b)
  | Or (a, b)
  | And (a, b)
  | General_cmp (_, a, b)
  | Value_cmp (_, a, b)
  | Node_is (a, b)
  | Arith (_, a, b)
  | Union (a, b)
  | Computed_element (a, b)
  | Computed_attribute (a, b) ->
      sub a || sub b
  | If (a, b, c) -> sub a || sub b || sub c
  | Neg a | Computed_text a -> sub a
  | Flwor (clauses, body) ->
      List.exists
        (function
          | For_clause { source = e; _ } | Let_clause { value = e; _ }
          | Where_clause e ->
              sub e
          | Order_by keys -> List.exists (fun (e, _) -> sub e) keys)
        clauses
      || sub body
  | Quantified (_, bindings, cond) ->
      List.exists (fun (_, e) -> sub e) bindings || sub cond
  | Path (root, steps) ->
      opt root || List.exists (fun s -> List.exists sub s.predicates) steps
  | Filter (primary, preds) -> sub primary || List.exists sub preds
  | Elem_constructor { attrs; content; _ } ->
      let part = function Const_text _ -> false | Const_expr e -> sub e in
      List.exists (fun (_, parts) -> List.exists part parts) attrs
      || List.exists part content
  | Ft_contains { context; selection; ignore_nodes } ->
      sub context || exists_in_selection p selection || opt ignore_nodes
  | Ft_score (context, selection) ->
      sub context || exists_in_selection p selection

and exists_in_selection p sel =
  let sub = exists_expr p and within = exists_in_selection p in
  let range = function
    | Exactly e | At_least e | At_most e -> sub e
    | From_to (a, b) -> sub a || sub b
  in
  match sel with
  | Ft_words { source; weight; _ } -> (
      (match source with Ft_expr e -> sub e | Ft_literal _ -> false)
      || match weight with Some e -> sub e | None -> false)
  | Ft_and (a, b) | Ft_or (a, b) | Ft_mild_not (a, b) -> within a || within b
  | Ft_unary_not a
  | Ft_ordered a
  | Ft_scope (a, _)
  | Ft_content (a, _)
  | Ft_with_options (a, _) ->
      within a
  | Ft_window (a, e, _) -> within a || sub e
  | Ft_distance (a, r, _) | Ft_times (a, r) -> within a || range r

(* Smart constructor used by the parser: a path with no steps is just its
   root expression. *)
let path root steps =
  match (root, steps) with
  | Some e, [] -> e
  | _ -> Path (root, steps)

(* Default match options (paper Section 3.1.4): case insensitive, without
   special characters, without wildcards, without stemming, without stop
   words, English, without thesaurus, diacritics insensitive. *)
let default_match_options =
  [
    Opt_case Case_insensitive;
    Opt_diacritics false;
    Opt_stemming false;
    Opt_wildcards false;
    Opt_special_chars false;
    Opt_stop_words None;
    Opt_thesaurus None;
    Opt_language "en";
  ]
