open Xquery.Ast

(* Native evaluation of FTSelection trees over AllMatches — the engine
   behind the Native_materialized strategy and the semantic reference the
   translated strategy is tested against.

   Match options are propagated outside-in to the Ft_words leaves, and each
   leaf receives its relative position in the query (queryPos), which
   FTOrdered consumes — both exactly as the paper's translation does
   (Section 3.2.2).

   A selection is first compiled into a plan: its leaves tokenized and
   expanded under their options, its embedded expressions (word sources,
   weights, window/distance/times bounds) evaluated.  The plan is then run
   over a scope: the whole evaluation context, or one context node after
   another, compiled once for all of them. *)

type eval_callback = Xquery.Context.t -> expr -> Xquery.Value.t

let eval_int ~(eval : eval_callback) ctx e =
  int_of_float (Xquery.Value.to_number (eval ctx e))

let eval_weight ~(eval : eval_callback) ctx e =
  Ft_ops.check_weight (Xquery.Value.to_number (eval ctx e))

let eval_range ~eval ctx = function
  | Exactly e -> Ft_ops.Exactly (eval_int ~eval ctx e)
  | At_least e -> Ft_ops.At_least (eval_int ~eval ctx e)
  | At_most e -> Ft_ops.At_most (eval_int ~eval ctx e)
  | From_to (lo, hi) ->
      let lo = eval_int ~eval ctx lo in
      Ft_ops.From_to (lo, eval_int ~eval ctx hi)

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
type words = { conjunctive : bool; units : Ft_ops.phrase list }

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

(* --- plans --- *)

type plan =
  | Leaf of { words : words; query_pos : int; weight : float option }
  | And of plan * plan
  | Or of plan * plan * int
      (** the steps the right operand's embedded expressions take, replayed
          before it when the disjunct before it did not satisfy the node:
          non-zero only along the top-level FTOr chain *)
  | Mild_not of plan * plan
  | Unary_not of plan
  | Ordered of plan
  | Window of {
      input : plan;
      n : int;
      unit_ : Ft_ops.unit_;
      counting : Ft_ops.counting;
      approximate : bool;
    }
  | Distance of {
      input : plan;
      range : Ft_ops.range;
      unit_ : Ft_ops.unit_;
      counting : Ft_ops.counting;
      approximate : bool;
    }
  | Scope of plan * ft_scope_kind
  | Times of plan * Ft_ops.range
  | Content of plan

type compiled = {
  plan : plan;
  anchors : ft_anchor list;
      (** the content anchors the selection's AllMatches carries: FTOr and
          FTAnd append both operands', FTMildNot keeps its left operand's *)
  anchored : bool;  (** some [at start] / [at end] / [entire content] *)
  steps : int;  (** the steps all its embedded expressions take *)
  first_steps : int;
      (** of those, the steps before the top-level FTOr chain's second
          disjunct (all of them when there is no such chain) *)
}

(* Compile a selection: embedded expressions are evaluated through [eval]
   in the order a per-node evaluation evaluates them, and the steps they
   take are measured on [ctx]'s governor.  The Ft_words leaves are
   numbered left to right (the "1", "2" arguments of the paper's
   translated FTWordsSelectionAny calls). *)
let compile ?(approximate = false) env ~eval ctx selection =
  let g = ctx.Xquery.Context.governor in
  let counter = ref 0 and anchored = ref false and deferred = ref 0 in
  let start = Xquery.Limits.steps g in
  let rec go outer selection =
    match selection with
    | Ft_words { source; anyall; options; weight } ->
        incr counter;
        let query_pos = !counter in
        let weight = Option.map (eval_weight ~eval ctx) weight in
        let phrases = source_phrases ~eval ctx source in
        let resolved = Match_options.resolve_with ~outer options in
        let words = compile_words env resolved anyall phrases in
        (Leaf { words; query_pos; weight }, [])
    | Ft_with_options (inner, options) ->
        go (Match_options.resolve_with ~outer options) inner
    | Ft_and (a, b) ->
        let pa, aa = go outer a in
        let pb, ab = go outer b in
        (And (pa, pb), aa @ ab)
    | Ft_or (a, b) ->
        let pa, aa = go outer a in
        let pb, ab = go outer b in
        (Or (pa, pb, 0), aa @ ab)
    | Ft_mild_not (a, b) ->
        let pa, aa = go outer a in
        let pb, _ = go outer b in
        (Mild_not (pa, pb), aa)
    | Ft_unary_not a ->
        let pa, aa = go outer a in
        (Unary_not pa, aa)
    | Ft_ordered a ->
        let pa, aa = go outer a in
        (Ordered pa, aa)
    | Ft_window (a, n, u) ->
        let input, aa = go outer a in
        let n = eval_int ~eval ctx n in
        let counting =
          Ft_ops.counting ?stops:outer.Match_options.stop_words env
        in
        (Window { input; n; unit_ = eval_unit u; counting; approximate }, aa)
    | Ft_distance (a, range, u) ->
        let input, aa = go outer a in
        let range = eval_range ~eval ctx range in
        let counting =
          Ft_ops.counting ?stops:outer.Match_options.stop_words env
        in
        ( Distance { input; range; unit_ = eval_unit u; counting; approximate },
          aa )
    | Ft_scope (a, kind) ->
        let pa, aa = go outer a in
        (Scope (pa, kind), aa)
    | Ft_times (a, range) ->
        let pa, aa = go outer a in
        (Times (pa, eval_range ~eval ctx range), aa)
    | Ft_content (a, anchor) ->
        anchored := true;
        let pa, aa = go outer a in
        (Content pa, anchor :: aa)
  in
  (* the top-level FTOr chain: each right operand's steps are deferred *)
  let rec chain outer = function
    | Ft_with_options (inner, options) ->
        chain (Match_options.resolve_with ~outer options) inner
    | Ft_or (a, b) ->
        let pa, aa = chain outer a in
        let before = Xquery.Limits.steps g and deferred_before = !deferred in
        let pb, ab = chain outer b in
        (* the right operand's own steps, less those deferred inside it *)
        let steps =
          Xquery.Limits.steps g - before - (!deferred - deferred_before)
        in
        deferred := !deferred + steps;
        (Or (pa, pb, steps), aa @ ab)
    | selection -> go outer selection
  in
  let plan, anchors = chain Match_options.defaults selection in
  let steps = Xquery.Limits.steps g - start in
  {
    plan;
    anchors;
    anchored = !anchored;
    steps;
    first_steps = (if !anchored then steps else steps - !deferred);
  }

(* --- running a plan --- *)

let ticks g n =
  for _ = 1 to n do
    Xquery.Limits.tick g
  done

(* Every operator output is an AllMatches construction point: bound it,
   and account it — the materialized side of the Section 4 comparison. *)
let counted g ms =
  let n = List.length ms in
  Xquery.Limits.check_matches g n;
  Xquery.Limits.count_materialized g n;
  ms

(* The FTAnd cross product: each match of [a] with each of [b], in
   order. *)
let rec and_all a b =
  match a with [] -> [] | ma :: rest -> and_onto ma b (and_all rest b)

and and_onto ma bs tail =
  match bs with
  | [] -> tail
  | mb :: rest -> Ft_ops.and_match ma mb :: and_onto ma rest tail

(* A conjunction with no matches so far reads no further unit. *)
let rec and_units g scope ~query_pos ~weight acc = function
  | [] -> acc
  | u :: rest -> (
      match acc with
      | [] -> []
      | acc ->
          and_units g scope ~query_pos ~weight
            (and_all acc (Ft_ops.phrase_matches g scope ~query_pos ~weight u))
            rest)

let leaf_matches g scope ~query_pos ~weight words =
  match words.units with
  | first :: rest when words.conjunctive ->
      and_units g scope ~query_pos ~weight
        (Ft_ops.phrase_matches g scope ~query_pos ~weight first)
        rest
  | [ only ] -> Ft_ops.phrase_matches g scope ~query_pos ~weight only
  | units ->
      List.concat_map (Ft_ops.phrase_matches g scope ~query_pos ~weight) units

let of_matches matches = { All_matches.matches; anchors = [] }

(* One match through the position filter of an [Ordered], [Window],
   [Distance] or [Scope] plan: kept (with its damped score), or dropped. *)
let filtered plan (m : All_matches.match_) =
  match plan with
  | Ordered _ -> if Ft_ops.ordered_ok m then Some m else None
  | Scope (_, kind) -> if Ft_ops.scope_ok kind m then Some m else None
  | Window { n; unit_; counting; approximate; _ } ->
      if approximate then Ft_ops.window_match_approx ~counting n unit_ m
      else Ft_ops.window_match ~counting n unit_ m
  | Distance { range; unit_; counting; approximate; _ } ->
      if approximate then Ft_ops.distance_match_approx ~counting range unit_ m
      else Ft_ops.distance_match ~counting range unit_ m
  | _ -> Some m

(* Every match of [plan] in [scope], each operator's output counted. *)
let rec materialize g scope plan =
  counted g
    (match plan with
    | Leaf { words; query_pos; weight } ->
        leaf_matches g scope ~query_pos ~weight words
    | And (a, b) -> (
        match materialize g scope a with
        (* no matches on the left: the right operand is not read *)
        | [] -> []
        | ma ->
            let mb = materialize g scope b in
            (* the FTAnd cross product is the materialization bomb Section
               4 analyzes — refuse it before building it *)
            Xquery.Limits.check_product g (List.length ma) (List.length mb);
            and_all ma mb)
    | Or (a, b, _) ->
        let ma = materialize g scope a in
        ma @ materialize g scope b
    | Mild_not (a, b) -> (
        match materialize g scope a with
        | [] -> []
        | ma ->
            (Ft_ops.ft_mild_not (of_matches ma)
               (of_matches (materialize g scope b)))
              .All_matches.matches)
    | Unary_not a ->
        let ma = materialize g scope a in
        (* DNF negation yields one match per choice of entry from every
           input match: the output size is the product of the entry
           counts *)
        ignore
          (List.fold_left
             (fun acc (m : All_matches.match_) ->
               let choices =
                 List.length m.All_matches.includes
                 + List.length m.All_matches.excludes
               in
               Xquery.Limits.check_product g acc (max 1 choices);
               acc * max 1 choices)
             1 ma);
        (Ft_ops.ft_unary_not (of_matches ma)).All_matches.matches
    | Ordered input
    | Scope (input, _)
    | Window { input; _ }
    | Distance { input; _ } ->
        List.filter_map (filtered plan) (materialize g scope input)
    | Times (a, range) ->
        (Ft_ops.ft_times range (of_matches (materialize g scope a)))
          .All_matches.matches
    | Content a -> materialize g scope a)

(* The rest of an enumeration for one node: what becomes of each match a
   sub-plan yields on the way to the verdict. *)
type cont =
  | Verdict  (** the node is satisfied unless an exclude lies inside it *)
  | Filter of plan * cont
      (** the position filter of this [Ordered], [Window], [Distance] or
          [Scope] plan *)
  | Pair of pair * cont  (** the left operand's match, with each right one *)

and pair = {
  right : plan;
  mutable right_matches : All_matches.match_ list option;
      (** read once, when the left operand yields its first match *)
  mutable built : int;
      (** the pairs built so far: no more than the cross product holds, so
          bounded by the materialization cap as the product is *)
}

(* Does a match of [plan] in [site] (read as [scope]) carry through [k] to
   satisfy the node?  Enumeration stops at the first that does: through
   FTAnd, FTOr and the position filters one match at a time, an FTAnd's
   right operand read once, and only once its left one has yielded a
   match.  Leaves and the blocking operators (FTUnaryNot, FTMildNot,
   FTTimes) materialize.  The pairs an FTAnd builds tick no steps, so they
   are counted against the materialization cap and poll the deadline
   every 256. *)
let rec exists g env scope site plan k =
  match plan with
  | Leaf { words; query_pos; weight } ->
      exists_in g env scope site
        (counted g (leaf_matches g scope ~query_pos ~weight words))
        k
  | And (a, right) ->
      exists g env scope site a
        (Pair ({ right; right_matches = None; built = 0 }, k))
  | Or (a, b, steps) ->
      exists g env scope site a k
      || begin
           ticks g steps;
           exists g env scope site b k
         end
  | Ordered input
  | Scope (input, _)
  | Window { input; _ }
  | Distance { input; _ } ->
      exists g env scope site input (Filter (plan, k))
  | Mild_not _ | Unary_not _ | Times _ | Content _ ->
      exists_in g env scope site (materialize g scope plan) k

and exists_in g env scope site ms k =
  match ms with
  | [] -> false
  | m :: rest -> push g env scope site m k || exists_in g env scope site rest k

and push g env scope site (m : All_matches.match_) = function
  | Verdict -> Ft_ops.satisfies ~includes_inside:true env site [] m
  | Filter (plan, k) -> (
      match filtered plan m with
      | Some m -> push g env scope site m k
      | None -> false)
  | Pair (p, k) ->
      let right =
        match p.right_matches with
        | Some ms -> ms
        | None ->
            let ms = materialize g scope p.right in
            p.right_matches <- Some ms;
            ms
      in
      pair_each g env scope site p m right k

and pair_each g env scope site p ma right k =
  match right with
  | [] -> false
  | mb :: rest ->
      p.built <- p.built + 1;
      Xquery.Limits.check_matches g p.built;
      if p.built land 255 = 0 then Xquery.Limits.check_deadline g;
      push g env scope site (Ft_ops.and_match ma mb) k
      || pair_each g env scope site p ma rest k

let all_matches ?within ?approximate env ~eval ctx selection =
  let c = compile ?approximate env ~eval ctx selection in
  let scope =
    match within with None -> Ft_ops.Everywhere | Some w -> Ft_ops.Context w
  in
  {
    All_matches.matches = materialize ctx.Xquery.Context.governor scope c.plan;
    anchors = c.anchors;
  }

(* the evaluation context, located, for source-level filtering *)
let context_filter env nodes = Some (Ft_ops.within_sites (Ft_ops.sites env nodes))

(* --- the Context.ft_handler for the native materialized strategy --- *)

let nodes_of value = Xquery.Value.nodes_of "ftcontains evaluation context" value

let yes = Xquery.Value.Boolean true
let no = Xquery.Value.Boolean false
let zero = Xquery.Value.Double 0.0

(* One node's verdict from a plan compiled once, the node located as
   [site].  It ticks what evaluating the selection for the node alone
   would: the steps of the embedded expressions that evaluation reaches.
   A top-level FTOr chain stops at the first disjunct that satisfies the
   node, so a later disjunct's steps are ticked only when it is reached. *)
let verdict_at env g c verdict site =
  let scope = Ft_ops.Node site in
  if verdict = Xquery.Context.Contains && not c.anchored then begin
    ticks g c.first_steps;
    if exists g env scope site c.plan Verdict then yes else no
  end
  else begin
    ticks g c.steps;
    let am =
      { All_matches.matches = materialize g scope c.plan; anchors = c.anchors }
    in
    match verdict with
    | Xquery.Context.Contains ->
        if Ft_ops.site_satisfies ~includes_inside:true env site am then yes
        else no
    | Xquery.Context.Score ->
        Xquery.Value.Double (Score.site_score ~includes_inside:true env site am)
  end

(* The last node's root, located: the nodes of one document share it. *)
type located = {
  mutable root : Xmlkit.Node.t;
  mutable site : Ft_ops.site option;
}

let to_node = Xquery.Value.to_node "ftcontains evaluation context"

(* [per_node], then the verdict, for each of [nodes] in order. *)
let verdicts env g ~per_node c verdict nodes =
  let first = Xmlkit.Node.root (to_node (List.hd nodes)) in
  let last = { root = first; site = Ft_ops.locate env first } in
  let rec go = function
    | [] -> []
    | item :: rest ->
        per_node ();
        let n = to_node item in
        let root = Xmlkit.Node.root n in
        if root != last.root then begin
          last.root <- root;
          last.site <- Ft_ops.locate env root
        end;
        let v =
          match last.site with
          | Some site ->
              verdict_at env g c verdict
                { site with Ft_ops.dewey = Xmlkit.Node.dewey n }
          | None ->
              (* a node of no indexed document reads no entries *)
              ticks g c.steps;
              if verdict = Xquery.Context.Contains then no else zero
        in
        v :: go rest
  in
  go nodes

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
        match nodes with
        | [] -> []
        | _ ->
            if not (Xquery.Value.is_all_nodes nodes) then
              ignore (nodes_of nodes);
            let g = ctx.Xquery.Context.governor in
            (* the selection means the same for every node: compile it once,
               its embedded expressions' steps measured on a governor of
               their own and ticked per node *)
            let quiet =
              { ctx with Xquery.Context.governor = Xquery.Limits.ungoverned () }
            in
            let c = compile env ~eval quiet selection in
            verdicts env g ~per_node c verdict nodes);
  }
