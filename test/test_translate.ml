(* The GalaTex translation (paper Section 3.2.2): ftcontains / ft:score
   become fts:* compositions, each node of the evaluation context is bound
   in turn ([some] for ftcontains, [for] for ft:score), match options
   propagate with override, and the output contains no full-text
   constructs. *)

open Galatex
open Xquery.Ast

let translate src = Translate.translate_query (Xquery.Parser.parse_query src)

let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

let contains_sub s sub =
  let ls = String.length s and lx = String.length sub in
  let rec at i = i + lx <= ls && (String.sub s i lx = sub || at (i + 1)) in
  at 0

let running_example =
  {|//book[.//p ftcontains ("usability" with stemming) && ("software" case sensitive) without stemming distance at most 10 words ordered]/title|}

let fold_sub f e acc =
  match e with
  | Literal_string _ | Literal_integer _ | Literal_double _ | Var _
  | Context_item | Root ->
      acc
  | Sequence es -> List.fold_left (fun a x -> f x a) acc es
  | Range (a, b) -> f b (f a acc)
  | If (c, t, e') -> f e' (f t (f c acc))
  | Flwor (clauses, body) ->
      let acc =
        List.fold_left
          (fun a c ->
            match c with
            | For_clause { source; _ } -> f source a
            | Let_clause { value; _ } -> f value a
            | Where_clause w -> f w a
            | Order_by keys -> List.fold_left (fun a (k, _) -> f k a) a keys)
          acc clauses
      in
      f body acc
  | Quantified (_, bindings, cond) ->
      f cond (List.fold_left (fun a (_, s) -> f s a) acc bindings)
  | Or (a, b) | And (a, b)
  | General_cmp (_, a, b)
  | Value_cmp (_, a, b)
  | Node_is (a, b)
  | Arith (_, a, b)
  | Union (a, b) ->
      f b (f a acc)
  | Neg a -> f a acc
  | Path (root, steps) ->
      let acc = match root with Some r -> f r acc | None -> acc in
      List.fold_left
        (fun a (s : step) -> List.fold_left (fun a p -> f p a) a s.predicates)
        acc steps
  | Filter (p, preds) -> List.fold_left (fun a x -> f x a) (f p acc) preds
  | Call (_, args) -> List.fold_left (fun a x -> f x a) acc args
  | Elem_constructor { attrs; content; _ } ->
      let in_parts acc parts =
        List.fold_left
          (fun a part ->
            match part with Const_text _ -> a | Const_expr e -> f e a)
          acc parts
      in
      in_parts (List.fold_left (fun a (_, ps) -> in_parts a ps) acc attrs) content
  | Computed_element (n, c) | Computed_attribute (n, c) -> f c (f n acc)
  | Computed_text c -> f c acc
  | Ft_contains { context; ignore_nodes; _ } ->
      let acc = f context acc in
      (match ignore_nodes with Some i -> f i acc | None -> acc)
  | Ft_score (c, _) -> f c acc

let rec find_calls name e acc =
  let acc =
    match e with Call (n, _) when n = name -> e :: acc | _ -> acc
  in
  fold_sub (find_calls name) e acc

let test_no_fulltext_remains () =
  List.iter
    (fun src ->
      let q = translate src in
      check_bool ("clean: " ^ src) false (Translate.has_fulltext q.body))
    [
      running_example;
      {|//book ftcontains "a"|};
      {|ft:score(//book, "x" weight 0.5)|};
      {|for $b in //book[. ftcontains "x"] return ft:score($b, "y")|};
      {|//a[. ftcontains (//b[. ftcontains "inner"]/t) any]|};
    ]

let test_running_example_shape () =
  let q = translate running_example in
  (* outermost fts call chain: FTContains(FTOrdered(FTDistanceAtMost(FTAnd(...)))) *)
  let contains = find_calls "fts:FTContains" q.body [] in
  check_bool "one FTContains" true (List.length contains = 1);
  (match contains with
  | [ Call (_, [ Var ctx_var; Call ("fts:FTOrdered", [ Call ("fts:FTDistanceAtMost", [ Literal_integer 10; Literal_string "words"; Call ("fts:FTAnd", [ _; _ ]); Literal_string _ ]) ]) ]) ]
    ->
      check_bool "ctx var bound" true (String.length ctx_var > 0)
  | _ -> Alcotest.fail "operator chain shape");
  (* match options: usability keeps stemming, software gets without-stemming
     propagated plus case sensitive *)
  match find_calls "fts:FTWordsSelection" q.body [] with
  | [ Call (_, second_args); Call (_, first_args) ] -> (
      (* find_calls accumulates in reverse *)
      match (first_args, second_args) with
      | ( [ Var v1; Literal_string "usability"; Literal_string "any";
            Literal_string mo1; Literal_integer 1; Literal_double 1.0 ],
          [ Var v2; Literal_string "software"; Literal_string "any";
            Literal_string mo2; Literal_integer 2; Literal_double 1.0 ] ) ->
          check_string "same ctx var" v1 v2;
          check_bool "usability stems" true
            (String.length mo1 > 0
            && contains_sub mo1 "stemming=on");
          check_bool "software does not stem" true
            (contains_sub mo2 "stemming=off");
          check_bool "software case sensitive" true
            (contains_sub mo2 "case=sensitive")
      | _ -> Alcotest.fail "FTWordsSelection argument shape")
  | other -> Alcotest.failf "expected 2 FTWordsSelection calls, got %d" (List.length other)

let is_ctx_var var = String.length var > 8 && String.sub var 0 8 = "fts_ctx_"

let test_context_bound_once () =
  let q = translate running_example in
  (* one "some" binding ranges over the evaluation context's nodes *)
  let rec count_somes e acc =
    let acc =
      match e with
      | Quantified (Some_q, bindings, _) ->
          acc + List.length (List.filter (fun (v, _) -> is_ctx_var v) bindings)
      | _ -> acc
    in
    fold_sub count_somes e acc
  in
  Alcotest.check Alcotest.int "one context binding" 1 (count_somes q.body 0)

let test_score_translation () =
  let q = translate {|ft:score(//book, "x")|} in
  check_bool "uses fts:FTScore" true (find_calls "fts:FTScore" q.body [] <> []);
  (* one score per context node: a "for" over the context's nodes *)
  match q.body with
  | Flwor
      ( [ For_clause { var; positional = None; _ } ],
        Call ("fts:FTScore", Var v :: _) ) ->
      check_bool "for binds the context node" true (is_ctx_var var && var = v)
  | _ -> Alcotest.fail "ft:score translation shape"

let test_ignore_translation () =
  let q = translate {|//a ftcontains "w" without content .//title|} in
  check_bool "uses FTContainsWithIgnore" true
    (find_calls "fts:FTContainsWithIgnore" q.body [] <> [])

let test_translated_text_parses () =
  List.iter
    (fun src ->
      let text = Engine.translate_to_text src in
      match Xquery.Parser.parse_query text with
      | _ -> ()
      | exception Xquery.Parser.Error { msg; _ } ->
          Alcotest.failf "translated text does not reparse: %s\n%s" msg text)
    [
      running_example;
      {|//book ftcontains "a" || "b" window 4|};
      {|ft:score(//book, "x" weight 0.25 && "y")|};
    ]

let tests =
  [
    Alcotest.test_case "no full-text remains" `Quick test_no_fulltext_remains;
    Alcotest.test_case "running example shape" `Quick test_running_example_shape;
    Alcotest.test_case "context bound once" `Quick test_context_bound_once;
    Alcotest.test_case "ft:score translation" `Quick test_score_translation;
    Alcotest.test_case "ignore translation" `Quick test_ignore_translation;
    Alcotest.test_case "translated text reparses" `Quick test_translated_text_parses;
  ]
