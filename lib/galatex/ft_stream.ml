open Xquery.Ast

(* Pipelined evaluation of FTSelections (paper Section 4.1): matches flow
   through the operator tree as a lazy sequence instead of whole AllMatches
   values being materialized at every step.  All primitives except
   FTUnaryNot and FTTimes are non-blocking, exactly as the paper observes
   ("All our full-text primitives, except FTTimes, are non-blocking");
   those two force their input.

   FTContains consumes the stream with the paper's early-exit loop: it
   stops at the first (match, node) pair that satisfies, so selective
   queries touch only a prefix of the match space. *)

type stream = {
  seq : All_matches.match_ Seq.t;
  anchors : ft_anchor list;
  mutable pulled : int;  (** matches actually produced — Fig 7 metric *)
}

let counted t seq =
  Seq.map
    (fun m ->
      t.pulled <- t.pulled + 1;
      m)
    seq

let of_matches matches = { seq = List.to_seq matches; anchors = []; pulled = 0 }

let to_all_matches s =
  { All_matches.matches = List.of_seq s.seq; anchors = s.anchors }

(* --- FTWords, lazily over the leading token's postings --- *)

let words_stream g scope ~query_pos ~weight (words : Ft_eval.words) =
  (* The phrase extension machinery of Ft_ops is reused; only the iteration
     over occurrences is lazy.  Expansion (vocabulary scan) happens on
     compilation, like GalaTex's inverted-list reads. *)
  let unit_seq expansions =
    List.to_seq (Ft_ops.phrase_occurrences g scope expansions)
    |> Seq.map (Ft_ops.match_of_postings ~query_pos ~weight)
  in
  let parts = List.map unit_seq words.units in
  if not words.conjunctive then List.fold_left Seq.append Seq.empty parts
  else
    (* conjunction across phrases: cross product, right sides materialized *)
    match parts with
    | [] -> Seq.empty
    | first :: rest ->
        List.fold_left
          (fun acc seq ->
            let materialized = List.of_seq seq in
            Seq.concat_map
              (fun ma -> List.to_seq (List.map (Ft_ops.and_match ma) materialized))
              acc)
          first rest

(* --- operators --- *)

let ft_or a b =
  { seq = Seq.append a.seq b.seq; anchors = a.anchors @ b.anchors; pulled = 0 }

let ft_and a b =
  (* one side must be materialized for a product; keep the outer lazy *)
  let b_matches = List.of_seq b.seq in
  {
    seq =
      Seq.concat_map
        (fun ma -> List.to_seq (List.map (Ft_ops.and_match ma) b_matches))
        a.seq;
    anchors = a.anchors @ b.anchors;
    pulled = 0;
  }

(* Blocking operators fall back to the materialized implementations. *)
let blocking f s =
  let am = f (to_all_matches s) in
  { seq = List.to_seq am.All_matches.matches; anchors = am.All_matches.anchors;
    pulled = 0 }

let ft_unary_not s = blocking Ft_ops.ft_unary_not s
let ft_times range s = blocking (Ft_ops.ft_times range) s

let ft_mild_not a b =
  (* only the right side blocks (its positions form the filter) *)
  let b_am = to_all_matches b in
  let b_positions = Hashtbl.create 64 in
  List.iter
    (fun m ->
      List.iter
        (fun (e : All_matches.entry) ->
          Hashtbl.replace b_positions
            ( e.All_matches.posting.Ftindex.Posting.doc,
              Ftindex.Posting.abs_pos e.All_matches.posting )
            ())
        m.All_matches.includes)
    b_am.All_matches.matches;
  {
    a with
    seq =
      Seq.filter
        (fun m ->
          not
            (List.exists
               (fun (e : All_matches.entry) ->
                 Hashtbl.mem b_positions
                   ( e.All_matches.posting.Ftindex.Posting.doc,
                     Ftindex.Posting.abs_pos e.All_matches.posting ))
               m.All_matches.includes))
        a.seq;
  }

let ft_ordered s = { s with seq = Seq.filter Ft_ops.ordered_ok s.seq }

let ft_distance ?counting range unit_ s =
  { s with seq = Seq.filter_map (Ft_ops.distance_match ?counting range unit_) s.seq }

let ft_window ?counting n unit_ s =
  { s with seq = Seq.filter_map (Ft_ops.window_match ?counting n unit_) s.seq }

let ft_scope kind s = { s with seq = Seq.filter (Ft_ops.scope_ok kind) s.seq }

let ft_content anchor s = { s with anchors = anchor :: s.anchors }

let apply_ignore env ignored s =
  { s with seq = Seq.filter_map (Ft_ops.ignore_filter env ignored) s.seq }

(* --- evaluation of a selection into a stream --- *)

(* The compiled leaves of one evaluation, by leaf number, each with the
   phrases it was compiled from.  A call that evaluates its selection for
   many nodes compiles each leaf once; a leaf whose phrases differ from the
   last compilation's is compiled again.  The materialized strategy
   compiles a whole plan once per call instead (Ft_eval.compile); this
   cache goes when the pipelined strategy does (ROADMAP item 12). *)
type leaves = (int * (string list * Ft_eval.words)) list ref

let leaf_words (leaves : leaves) env ~outer_options ~query_pos options anyall phrases =
  match List.assoc query_pos !leaves with
  | compiled_from, words when List.equal String.equal compiled_from phrases ->
      words
  | _ | (exception Not_found) ->
      let resolved = Match_options.resolve_with ~outer:outer_options options in
      let words = Ft_eval.compile_words env resolved anyall phrases in
      leaves := (query_pos, (phrases, words)) :: !leaves;
      words

let rec eval_stream scope ~leaves env ~eval ctx ~outer_options counter
    selection =
  let recur = eval_stream scope ~leaves env ~eval ctx in
  match selection with
  | Ft_words { source; anyall; options; weight } ->
      incr counter;
      let query_pos = !counter in
      let weight = Option.map (Ft_eval.eval_weight ~eval ctx) weight in
      let phrases = Ft_eval.source_phrases ~eval ctx source in
      {
        seq =
          words_stream ctx.Xquery.Context.governor scope ~query_pos
            ~weight
            (leaf_words leaves env ~outer_options ~query_pos options anyall
               phrases);
        anchors = [];
        pulled = 0;
      }
  | Ft_with_options (inner, options) ->
      let outer_options = Match_options.resolve_with ~outer:outer_options options in
      recur ~outer_options counter inner
  | Ft_and (a, b) ->
      let va = recur ~outer_options counter a in
      let vb = recur ~outer_options counter b in
      ft_and va vb
  | Ft_or (a, b) ->
      let va = recur ~outer_options counter a in
      let vb = recur ~outer_options counter b in
      ft_or va vb
  | Ft_mild_not (a, b) ->
      let va = recur ~outer_options counter a in
      let vb = recur ~outer_options counter b in
      ft_mild_not va vb
  | Ft_unary_not a -> ft_unary_not (recur ~outer_options counter a)
  | Ft_ordered a -> ft_ordered (recur ~outer_options counter a)
  | Ft_window (a, n, u) ->
      let counting =
        Ft_ops.counting ?stops:outer_options.Match_options.stop_words env
      in
      ft_window ~counting (Ft_eval.eval_int ~eval ctx n) (Ft_eval.eval_unit u)
        (recur ~outer_options counter a)
  | Ft_distance (a, range, u) ->
      let counting =
        Ft_ops.counting ?stops:outer_options.Match_options.stop_words env
      in
      ft_distance ~counting (Ft_eval.eval_range ~eval ctx range)
        (Ft_eval.eval_unit u)
        (recur ~outer_options counter a)
  | Ft_scope (a, kind) -> ft_scope kind (recur ~outer_options counter a)
  | Ft_times (a, range) ->
      ft_times (Ft_eval.eval_range ~eval ctx range) (recur ~outer_options counter a)
  | Ft_content (a, anchor) -> ft_content anchor (recur ~outer_options counter a)

let stream_in scope ~leaves env ~eval ctx selection =
  let s =
    eval_stream scope ~leaves env ~eval ctx
      ~outer_options:Match_options.defaults (ref 0) selection
  in
  (* pipelining never materializes whole AllMatches, so the governed —
     and counted — quantity is the number of matches pulled through the
     pipeline; same counter unit as the materialized strategy's operator
     outputs, which makes Section 4's pipelined <= materialized claim
     directly checkable from the report *)
  let g = ctx.Xquery.Context.governor in
  let pulled = ref 0 in
  {
    s with
    seq =
      Seq.map
        (fun m ->
          incr pulled;
          Xquery.Limits.check_matches g !pulled;
          Xquery.Limits.count_materialized g 1;
          m)
        s.seq;
  }

let stream ?(scope = Ft_ops.Everywhere) env ~eval ctx selection =
  stream_in scope ~leaves:(ref []) env ~eval ctx selection

(* --- consumers --- *)

(* FTContains with early exit: the first satisfying (match, site) pair ends
   the scan — the paper's "if succeeded in marking new nodes then break".
   [includes_inside] as in {!Ft_ops.satisfies}. *)
let contains_at ?includes_inside env sites s =
  let tests =
    List.map (fun site -> Ft_ops.satisfies ?includes_inside env site s.anchors) sites
  in
  Seq.exists (fun m -> List.exists (fun test -> test m) tests) (counted s s.seq)

let contains env nodes s = contains_at env (Ft_ops.sites env nodes) s

(* --- the Context.ft_handler for the pipelined strategy --- *)

(* [handle_each]: [verdict ~leaves ~scope site] evaluates the selection
   for one node alone, as [handle_contains] / [handle_score] would; each
   node is located once, and the leaves are compiled once for all the
   nodes. *)
let each_node env ~per_node nodes verdict =
  let leaves = ref [] in
  List.map
    (fun n ->
      per_node ();
      let site = Ft_ops.locate env n in
      let scope =
        match site with
        | Some site -> Ft_ops.Node site
        | None -> Ft_ops.Context []
      in
      verdict ~leaves ~scope site)
    (Ft_eval.nodes_of nodes)

let handler env : Xquery.Context.ft_handler =
  {
    Xquery.Context.handle_contains =
      (fun ~eval ctx context_nodes selection ignored ->
        let sites = Ft_ops.sites env (Ft_eval.nodes_of context_nodes) in
        let s =
          stream ~scope:(Ft_ops.Context (Ft_ops.within_sites sites)) env ~eval
            ctx selection
        in
        let s =
          match ignored with
          | None -> s
          | Some ig -> apply_ignore env (Ft_eval.nodes_of ig) s
        in
        Xquery.Value.boolean (contains_at env sites s));
    Xquery.Context.handle_score =
      (fun ~eval ctx context_nodes selection ->
        (* scoring needs all matches (the Section 4.2 tension between
           pipelining and scoring): materialize *)
        let sites = Ft_ops.sites env (Ft_eval.nodes_of context_nodes) in
        let s =
          stream ~scope:(Ft_ops.Context (Ft_ops.within_sites sites)) env ~eval
            ctx selection
        in
        let am = to_all_matches s in
        List.map
          (fun sc -> Xquery.Value.Double sc)
          (Score.scores env (Ft_eval.nodes_of context_nodes) am));
    Xquery.Context.handle_each =
      (fun ~eval ctx ~per_node nodes selection verdict ->
        each_node env ~per_node nodes (fun ~leaves ~scope site ->
            let s = stream_in scope ~leaves env ~eval ctx selection in
            match (verdict, site) with
            | Xquery.Context.Contains, _ ->
                Xquery.Value.Boolean
                  (contains_at ~includes_inside:true env (Option.to_list site) s)
            | Xquery.Context.Score, None ->
                ignore (to_all_matches s);
                Xquery.Value.Double 0.0
            | Xquery.Context.Score, Some site ->
                Xquery.Value.Double
                  (Score.site_score ~includes_inside:true env site
                     (to_all_matches s))));
  }
