open Xquery.Ast

(* Native (materialized) evaluation of FTSelection trees over AllMatches —
   the engine behind the Native_materialized strategy and the semantic
   reference the other strategies are tested against.

   Match options are propagated outside-in to the Ft_words leaves, and each
   leaf receives its relative position in the query (queryPos), which
   FTOrdered consumes — both exactly as the paper's translation does
   (Section 3.2.2). *)

type eval_callback = Xquery.Context.t -> expr -> Xquery.Value.t

let eval_int ~(eval : eval_callback) ctx e =
  int_of_float (Xquery.Value.to_number (eval ctx e))

let eval_float ~(eval : eval_callback) ctx e = Xquery.Value.to_number (eval ctx e)

(* A weight outside [0,1] is err:FTDY0016 — shared by both native
   strategies so they diverge on neither the value nor the error. *)
let eval_weight ~(eval : eval_callback) ctx e =
  let v = eval_float ~eval ctx e in
  if v < 0.0 || v > 1.0 then
    Xquery.Errors.raise_error Xquery.Errors.FTDY0016 "weight %g outside [0,1]" v
  else v

let eval_range ~eval ctx = function
  | Exactly e -> Ft_ops.Exactly (eval_int ~eval ctx e)
  | At_least e -> Ft_ops.At_least (eval_int ~eval ctx e)
  | At_most e -> Ft_ops.At_most (eval_int ~eval ctx e)
  | From_to (lo, hi) -> Ft_ops.From_to (eval_int ~eval ctx lo, eval_int ~eval ctx hi)

let eval_unit = function
  | Words -> Ft_ops.Words
  | Sentences -> Ft_ops.Sentences
  | Paragraphs -> Ft_ops.Paragraphs

(* The strings a words source denotes: each item of the value is a phrase
   (paper Section 2.1: //book[...]/title as search tokens). *)
let source_phrases ~(eval : eval_callback) ctx = function
  | Ft_literal s -> [ s ]
  | Ft_expr e ->
      List.map Xquery.Value.item_to_string (Xquery.Value.atomize (eval ctx e))

(* An Ft_words leaf compiled against the index: the phrases it searches
   (single words under "any word" / "all words", one phrase under
   "phrase"), each as its tokens' expansions, and whether they combine by
   FTAnd or by FTOr. *)
type words = { conjunctive : bool; units : Match_options.expansion list list }

let compile_words env resolved anyall phrases =
  let compile strings =
    List.map (Ft_ops.phrase_expansions env resolved) strings
  in
  let tokens_of phrases =
    List.concat_map (Ft_ops.phrase_tokens resolved) phrases
  in
  match anyall with
  (* at least one of the phrases occurs: union of their matches *)
  | Ft_any -> { conjunctive = false; units = compile phrases }
  | Ft_all -> { conjunctive = true; units = compile phrases }
  (* all strings concatenated into a single phrase *)
  | Ft_phrase ->
      { conjunctive = false; units = compile [ String.concat " " phrases ] }
  | Ft_any_word -> { conjunctive = false; units = compile (tokens_of phrases) }
  | Ft_all_words -> { conjunctive = true; units = compile (tokens_of phrases) }

(* The compiled leaves of one handler call, by leaf number, each with the
   phrases it was compiled from.  A call that evaluates its selection for
   many nodes compiles each leaf once; a leaf whose phrases differ from
   the last compilation's is compiled again. *)
type leaves = (int * (string list * words)) list ref

let fresh_leaves () : leaves = ref []

let leaf_words leaves env ~outer_options ~query_pos options anyall phrases =
  match List.assoc query_pos !leaves with
  | compiled_from, words when List.equal String.equal compiled_from phrases ->
      words
  | _ | (exception Not_found) ->
      let resolved = Match_options.resolve_with ~outer:outer_options options in
      let words = compile_words env resolved anyall phrases in
      leaves := (query_pos, (phrases, words)) :: !leaves;
      words

let words_matches ?g ?within ~query_pos ~weight words =
  let unit_ms expansions =
    All_matches.of_matches
      (Ft_ops.phrase_matches ?g ?within ~query_pos ~weight expansions)
  in
  match words.units with
  | first :: rest when words.conjunctive ->
      List.fold_left
        (fun acc u -> Ft_ops.ft_and acc (unit_ms u))
        (unit_ms first) rest
  | [ only ] -> unit_ms only
  | units ->
      List.fold_left
        (fun acc u -> Ft_ops.ft_or acc (unit_ms u))
        All_matches.empty units

(* Number the Ft_words leaves left to right (the "1", "2" arguments of the
   paper's translated FTWordsSelectionAny calls). *)
let all_matches ?within ?(approximate = false) ?(leaves = fresh_leaves ()) env
    ~eval ctx selection =
  let g = ctx.Xquery.Context.governor in
  let counter = ref 0 in
  let rec go outer_options selection =
    let am =
      match selection with
      | Ft_words { source; anyall; options; weight } ->
          incr counter;
          let query_pos = !counter in
          let weight =
            match weight with
            | None -> None
            | Some w -> Some (eval_weight ~eval ctx w)
          in
          let phrases = source_phrases ~eval ctx source in
          words_matches ~g ?within ~query_pos ~weight
            (leaf_words leaves env ~outer_options ~query_pos options anyall
               phrases)
      | Ft_with_options (inner, options) ->
          go (Match_options.resolve_with ~outer:outer_options options) inner
      | Ft_and (a, b) ->
          let va = go outer_options a in
          let vb = go outer_options b in
          (* the FTAnd cross product is the materialization bomb Section 4
             analyzes — refuse it before building it *)
          Xquery.Limits.check_product g (All_matches.size va)
            (All_matches.size vb);
          Ft_ops.ft_and va vb
      | Ft_or (a, b) ->
          let va = go outer_options a in
          let vb = go outer_options b in
          Ft_ops.ft_or va vb
      | Ft_mild_not (a, b) ->
          let va = go outer_options a in
          let vb = go outer_options b in
          Ft_ops.ft_mild_not va vb
      | Ft_unary_not a ->
          let va = go outer_options a in
          (* DNF negation yields one match per choice of entry from every
             input match: the output size is the product of the entry
             counts *)
          List.fold_left
            (fun acc (m : All_matches.match_) ->
              let choices =
                List.length m.All_matches.includes
                + List.length m.All_matches.excludes
              in
              Xquery.Limits.check_product g acc (max 1 choices);
              acc * max 1 choices)
            1 va.All_matches.matches
          |> ignore;
          Ft_ops.ft_unary_not va
      | Ft_ordered a -> Ft_ops.ft_ordered (go outer_options a)
      | Ft_window (a, n, u) ->
          let counting =
            Ft_ops.counting ?stops:outer_options.Match_options.stop_words env
          in
          let op =
            if approximate then Ft_ops.ft_window_approx else Ft_ops.ft_window
          in
          op ~counting (eval_int ~eval ctx n) (eval_unit u) (go outer_options a)
      | Ft_distance (a, range, u) ->
          let counting =
            Ft_ops.counting ?stops:outer_options.Match_options.stop_words env
          in
          let op =
            if approximate then Ft_ops.ft_distance_approx else Ft_ops.ft_distance
          in
          op ~counting (eval_range ~eval ctx range) (eval_unit u)
            (go outer_options a)
      | Ft_scope (a, kind) -> Ft_ops.ft_scope kind (go outer_options a)
      | Ft_times (a, range) ->
          Ft_ops.ft_times (eval_range ~eval ctx range) (go outer_options a)
      | Ft_content (a, anchor) -> Ft_ops.ft_content anchor (go outer_options a)
    in
    (* every operator output is an AllMatches construction point: bound it,
       and account it — the materialized side of the Section 4 comparison *)
    let n = All_matches.size am in
    Xquery.Limits.check_matches g n;
    Xquery.Limits.count_materialized g n;
    am
  in
  go Match_options.defaults selection

(* the evaluation context, located, for source-level filtering *)
let context_filter env nodes = Some (Ft_ops.within_sites (Ft_ops.sites env nodes))

(* --- the Context.ft_handler for the native materialized strategy --- *)

let nodes_of value = Xquery.Value.nodes_of "ftcontains evaluation context" value

(* [handle_each] for a strategy: [verdict ~leaves ~within site] evaluates
   the selection for one node alone, as the strategy's [handle_contains] /
   [handle_score] would; each node is located once, and the leaves are
   compiled once for all the nodes. *)
let each_node env ~per_node nodes verdict =
  let leaves = fresh_leaves () in
  List.map
    (fun n ->
      per_node ();
      let site = Ft_ops.locate env n in
      verdict ~leaves ~within:(Ft_ops.within_sites (Option.to_list site)) site)
    (nodes_of nodes)

let handler env : Xquery.Context.ft_handler =
  {
    Xquery.Context.handle_contains =
      (fun ~eval ctx context_nodes selection ignored ->
        let sites = Ft_ops.sites env (nodes_of context_nodes) in
        let am =
          all_matches ~within:(Ft_ops.within_sites sites) env ~eval ctx selection
        in
        let am =
          match ignored with
          | None -> am
          | Some ig -> Ft_ops.apply_ignore env (nodes_of ig) am
        in
        Xquery.Value.boolean (Ft_ops.ft_contains env sites am));
    Xquery.Context.handle_score =
      (fun ~eval ctx context_nodes selection ->
        let within = context_filter env (nodes_of context_nodes) in
        let am = all_matches ?within env ~eval ctx selection in
        List.map
          (fun s -> Xquery.Value.Double s)
          (Score.scores env (nodes_of context_nodes) am));
    Xquery.Context.handle_each =
      (fun ~eval ctx ~per_node nodes selection verdict ->
        each_node env ~per_node nodes (fun ~leaves ~within site ->
            (* a node of no indexed document reads no entries, but its
               selection is still evaluated (weights, counters) *)
            let am = all_matches ~within ~leaves env ~eval ctx selection in
            match (verdict, site) with
            | Xquery.Context.Contains, None -> Xquery.Value.Boolean false
            | Xquery.Context.Contains, Some site ->
                Xquery.Value.Boolean
                  (Ft_ops.site_satisfies ~includes_inside:true env site am)
            | Xquery.Context.Score, None -> Xquery.Value.Double 0.0
            | Xquery.Context.Score, Some site ->
                Xquery.Value.Double
                  (Score.site_score ~includes_inside:true env site am)));
  }
