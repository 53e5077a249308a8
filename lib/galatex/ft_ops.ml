(* Materialized semantics of every FTSelection on AllMatches (paper Section
   3.2.3.1), with the probabilistic score formulas of Section 3.3:

     FTWords    score of a match = product of its entries' inverted-list
                scores (x the user weight, Section 2.2)
     FTAnd      s3 = s1 * s2
     FTOr       union of matches, scores kept (the 1-(1-s1)(1-s2) form
                applies when composing per-node answer scores, Score module)
     FTDistance / FTWindow   s' = s * f with f in (0,1] (damping by how much
                of the allowed span the match uses)
     FTNegation / FTOrdered / FTScope / FTTimes / FTContent
                scores unchanged

   The operators here work on one match at a time (FTAnd's pair, the
   per-match filters) or on whole AllMatches values (the blocking
   FTUnaryNot, FTMildNot and FTTimes); Ft_eval composes them into the
   native strategy. *)

open All_matches

type range =
  | Exactly of int
  | At_least of int
  | At_most of int
  | From_to of int * int

type unit_ = Words | Sentences | Paragraphs

let clamp_score s = if s <= 0.0 then epsilon_float else if s > 1.0 then 1.0 else s

(* A weight outside [0,1] is err:FTDY0016, under every strategy. *)
let check_weight w =
  if w < 0.0 || w > 1.0 then
    Xquery.Errors.raise_error Xquery.Errors.FTDY0016 "weight %g outside [0,1]" w
  else w

(* --- context sites --- *)

(* A context node resolved against the index once: its document, that
   document's largest term frequency (every Section 3.3 score of its runs
   divides by it) and the node's Dewey label. *)
type site = { doc : string; max_tf : int option; dewey : Xmlkit.Dewey.t }

let locate env node =
  let index = Env.index env in
  match Ftindex.Inverted.doc_of_node index node with
  | None -> None
  | Some doc ->
      Some
        {
          doc;
          max_tf = Ftindex.Stats.max_tf (Ftindex.Inverted.stats index) ~doc;
          dewey = Xmlkit.Node.dewey node;
        }

(* --- FTWords --- *)

let run_score ~max_tf ~idf run =
  Ftindex.Stats.tf_idf ~max_tf ~tf:(Array.length run) ~idf

let by_position entries =
  List.stable_sort (fun (a, _) (b, _) -> Ftindex.Posting.compare_pos a b) entries

(* One key's entries inside a context node, each paired with its run's
   one score, in front of [tail].  Like the paper's getTokenInfo,
   positions outside the node are dropped at the source: only the node's
   document's run is read, and of it only the node's slice, which [read]
   counts. *)
let key_entries read site (runs, idf) tail =
  match Ftindex.Inverted.Doc_map.find site.doc runs with
  | run ->
      let score = run_score ~max_tf:site.max_tf ~idf run in
      Ftindex.Inverted.map_node ~read run site.dewey (fun p -> (p, score)) tail
  | exception Not_found -> tail

(* The entries of [key_runs] inside a context node, in position order. *)
let node_entries read site key_runs =
  match key_runs with
  | [ key ] -> key_entries read site key []
  | keys -> by_position (List.fold_right (key_entries read site) keys [])

(* Without a context: every document's whole run of every key. *)
let all_entries read stats key_runs =
  let whole (runs, idf) tail =
    List.fold_right
      (fun (doc, run) tail ->
        read := !read + Array.length run;
        let score = run_score ~max_tf:(Ftindex.Stats.max_tf stats ~doc) ~idf run in
        Array.fold_right (fun p acc -> (p, score) :: acc) run tail)
      (Ftindex.Inverted.Doc_map.bindings runs)
      tail
  in
  match key_runs with
  | [ key ] -> whole key []
  | keys -> by_position (List.fold_right whole keys [])

type scope = Node of site | Everywhere

let posting_entries g scope expansion =
  match expansion.Match_options.key_runs with
  | [] -> []
  | keys ->
      let read = ref 0 in
      let entries =
        match scope with
        | Node site -> node_entries read site keys
        | Everywhere -> all_entries read expansion.Match_options.stats keys
      in
      (* the observability hook: every entry this leaf read (the slice of
         the context node's document's run inside the node, or whole lists
         without a context), counted before option filtering — the paper's
         IO-side cost *)
      Xquery.Limits.count_postings g !read;
      if expansion.Match_options.accepts_all then entries
      else List.filter (fun (p, _) -> expansion.Match_options.accept p) entries

(* The index of the entry at ([doc], [pos]) in [entries], which ascend by
   (document, position), or -1. *)
let rec find_entry entries ~doc pos lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let p = fst entries.(mid) in
    let c =
      match String.compare p.Ftindex.Posting.doc doc with
      | 0 -> Int.compare (Ftindex.Posting.abs_pos p) pos
      | c -> c
    in
    if c = 0 then mid
    else if c < 0 then find_entry entries ~doc pos (mid + 1) hi
    else find_entry entries ~doc pos lo mid

(* The nearest entry [d] to [gap + 1] positions after [pos]: adjacent,
   or past up to [gap] skipped stop-word slots; -1 when none. *)
let rec next_entry entries ~doc pos gap d =
  if d > gap + 1 then -1
  else
    match find_entry entries ~doc (pos + d) 0 (Array.length entries) with
    | -1 -> next_entry entries ~doc pos gap (d + 1)
    | i -> i

let rec extend_phrase ~doc acc pos = function
  | [] -> Some (List.rev acc)
  | (gap, entries) :: more -> (
      match next_entry entries ~doc pos gap 1 with
      | -1 -> None
      | i ->
          let ((p, _) as e) = entries.(i) in
          extend_phrase ~doc (e :: acc) (Ftindex.Posting.abs_pos p) more)

let join_phrase first followers =
  List.filter_map
    (fun ((p0, _) as e0) ->
      extend_phrase ~doc:p0.Ftindex.Posting.doc [ e0 ]
        (Ftindex.Posting.abs_pos p0) followers)
    first

(* A phrase compiled against the index: its tokens that are not stop
   words (under the active stop-word list), in phrase order, each with the
   number of dropped stop tokens before it.  Dropped tokens allow a
   corresponding gap between the surviving tokens (the paper: distance and
   window "skip stop words when specified"). *)
type phrase = (int * Match_options.expansion) list

let rec survivors gap = function
  | [] -> []
  | e :: rest ->
      if e.Match_options.is_stop then survivors (gap + 1) rest
      else (gap, e) :: survivors 0 rest

(* a phrase needs every token: the first token with no entries in the
   scope ends the reads *)
let rec read_followers g scope first acc = function
  | [] -> join_phrase first (List.rev acc)
  | (gap, e) :: more -> (
      match posting_entries g scope e with
      | [] -> []
      | entries ->
          let acc = (gap, Array.of_list entries) :: acc in
          read_followers g scope first acc more)

let rec singletons = function [] -> [] | e :: rest -> [ e ] :: singletons rest

(* Occurrences of a phrase: its tokens at consecutive positions, up to
   the allowed gaps. *)
let phrase_occurrences g scope (phrase : phrase) =
  match phrase with
  | [] -> []
  | [ (_, only) ] -> singletons (posting_entries g scope only)
  | (_, first) :: rest -> (
      match posting_entries g scope first with
      | [] -> []
      | first -> read_followers g scope first [] rest)

(* A phrase occurrence's positions ascend within one document, so they are
   already the sorted include list. *)
(* The score of a leaf's match: the product of its positions' scores
   [base], weighted. *)
let leaf_score ~weight base =
  clamp_score
    (match weight with None -> base | Some w -> clamp_score (base *. w))

let match_of_postings ~query_pos ~weight postings =
  let includes = List.map (fun (p, _) -> entry ~query_pos p) postings in
  let base = List.fold_left (fun acc (_, score) -> acc *. score) 1.0 postings in
  { includes; excludes = []; score = leaf_score ~weight base }

(* Phrase tokenization: under the wildcards / special-characters options
   the pattern characters are part of the token, so the phrase splits on
   whitespace only. *)
let phrase_tokens resolved phrase =
  if
    resolved.Match_options.wildcards || resolved.Match_options.special_chars
  then
    String.split_on_char ' '
      (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) phrase)
    |> List.filter (( <> ) "")
  else Tokenize.Segmenter.words_of_phrase phrase

let phrase_expansions env resolved phrase =
  phrase_tokens resolved phrase
  |> List.map (Match_options.expand env resolved)
  |> survivors 0

(* One phrase -> one Match per occurrence. *)
let rec matches_of ~query_pos ~weight = function
  | [] -> []
  | o :: rest ->
      let m = match_of_postings ~query_pos ~weight o in
      m :: matches_of ~query_pos ~weight rest

(* A one-token phrase of one key, read inside one node: a match per entry
   of the node's slice, each scored as [match_of_postings] scores a
   one-position occurrence, with no occurrence list built. *)
let run_matches g site ~query_pos ~weight (runs, idf) =
  match Ftindex.Inverted.Doc_map.find site.doc runs with
  | run ->
      let score =
        leaf_score ~weight (run_score ~max_tf:site.max_tf ~idf run)
      in
      let read = ref 0 in
      let ms =
        Ftindex.Inverted.map_node ~read run site.dewey
          (fun p -> { includes = [ entry ~query_pos p ]; excludes = []; score })
          []
      in
      Xquery.Limits.count_postings g !read;
      ms
  | exception Not_found -> []

let phrase_matches g scope ~query_pos ~weight phrase =
  match (scope, phrase) with
  | ( Node site,
      [ (_, { Match_options.key_runs = [ key ]; accepts_all = true; _ }) ] ) ->
      run_matches g site ~query_pos ~weight key
  | _ -> matches_of ~query_pos ~weight (phrase_occurrences g scope phrase)

(* --- Boolean connectives --- *)

(* One match of a conjunction: both include lists are sorted, so a stable
   merge gives the sorted include list. *)
let and_match ma mb =
  {
    includes = merge_entries ma.includes mb.includes;
    excludes = ma.excludes @ mb.excludes;
    score = clamp_score (ma.score *. mb.score);
  }

(* DNF negation: choose one entry from every match and flip its polarity.
   No matches (false) negates to one empty match (true); an empty match
   (true) negates to no matches (false). *)
let ft_unary_not a =
  let flip_choices m =
    List.map (fun e -> `Exclude e) m.includes
    @ List.map (fun e -> `Include e) m.excludes
  in
  let matches =
    List.fold_left
      (fun acc m ->
        List.concat_map
          (fun (inc, exc) ->
            List.map
              (function
                | `Include e -> (e :: inc, exc)
                | `Exclude e -> (inc, e :: exc))
              (flip_choices m))
          acc)
      [ ([], []) ] a
  in
  List.map (fun (inc, exc) -> make_match ~excludes:exc inc) matches

(* Mild not ("A not in B"): keep a match of A unless one of its include
   positions is part of a match of B. *)
let ft_mild_not a b =
  let b_positions = Hashtbl.create 64 in
  List.iter
    (fun m ->
      List.iter
        (fun e ->
          Hashtbl.replace b_positions
            (e.posting.Ftindex.Posting.doc, Ftindex.Posting.abs_pos e.posting)
            ())
        m.includes)
    b;
  List.filter
    (fun m ->
      not
        (List.exists
           (fun e ->
             Hashtbl.mem b_positions
               (e.posting.Ftindex.Posting.doc, Ftindex.Posting.abs_pos e.posting))
           m.includes))
    a

(* --- position filters --- *)

let unit_pos unit_ e =
  match unit_ with
  | Words -> Ftindex.Posting.abs_pos e.posting
  | Sentences -> Ftindex.Posting.sentence e.posting
  | Paragraphs -> Ftindex.Posting.para e.posting

let entry_doc e = e.posting.Ftindex.Posting.doc

let same_doc entries =
  match entries with
  | [] -> true
  | e :: rest ->
      let doc = entry_doc e in
      List.for_all (fun e' -> String.equal (entry_doc e') doc) rest

(* FTOrdered: include positions must appear in the order of the search words
   in the query (their queryPos), paper Section 3.2.2. *)
let ordered_ok m =
  List.for_all
    (fun e1 ->
      List.for_all
        (fun e2 ->
          e1.query_pos >= e2.query_pos
          || (String.equal (entry_doc e1) (entry_doc e2)
             && Ftindex.Posting.abs_pos e1.posting
                <= Ftindex.Posting.abs_pos e2.posting))
        m.includes)
    m.includes

let in_range range v =
  match range with
  | Exactly n -> v = n
  | At_least n -> v >= n
  | At_most n -> v <= n
  | From_to (lo, hi) -> v >= lo && v <= hi

(* The paper's wordDistance abstract function (Section 3.1.1) takes the
   match options: with an active stop-word list, words-unit distances and
   window spans skip stop words ("these primitives skip stop words when
   specified", Section 3.2.3.2).  [counting] carries what that needs. *)
type counting = {
  count_stops : Tokenize.Stopwords.Set.t option;
  count_env : Env.t option;
}

let plain_counting = { count_stops = None; count_env = None }

let counting ?stops env = { count_stops = stops; count_env = Some env }

(* number of counted (non-stop) words strictly between positions lo < hi of
   one document; token absolute positions are contiguous 1-based indexes
   into the document token array *)
let words_between c ~doc lo hi =
  match (c.count_stops, c.count_env) with
  | Some stops, Some env ->
      let tokens = Ftindex.Inverted.tokens_of_doc (Env.index env) ~doc in
      let n = Array.length tokens in
      let count = ref 0 in
      for p = lo + 1 to hi - 1 do
        if p >= 1 && p <= n then begin
          let t = tokens.(p - 1) in
          if not (Tokenize.Stopwords.Set.mem stops t.Tokenize.Token.norm) then
            incr count
        end
      done;
      !count
  (* clamp so two entries at the same position (FTAnd duplicating a word)
     are 0 apart, like the stop-word-counting branch above *)
  | _ -> Int.max 0 (hi - lo - 1)

(* counted window span of [lo, hi]: the two endpoints plus the counted
   words between them *)
let word_span c ~doc lo hi =
  if lo = hi then 1
  else 2 + words_between c ~doc (Int.min lo hi) (Int.max lo hi)

(* Distance between two adjacent positions: counted words in between (unit
   words), or difference of sentence/paragraph ordinals. *)
let pair_distance c unit_ e1 e2 =
  let p1 = unit_pos unit_ e1 and p2 = unit_pos unit_ e2 in
  match unit_ with
  | Words -> words_between c ~doc:(entry_doc e1) (Int.min p1 p2) (Int.max p1 p2)
  | Sentences | Paragraphs -> abs (p2 - p1)

(* Range upper bound, used for score damping. *)
let range_bound = function
  | Exactly n -> Some n
  | At_most n -> Some n
  | From_to (_, hi) -> Some hi
  | At_least _ -> None

(* The largest distance between adjacent entries of a sorted include list,
   or -1 when some distance is out of [range]. *)
let max_adjacent_distance c range unit_ includes =
  let rec go max_d = function
    | x :: (y :: _ as rest) ->
        let d = pair_distance c unit_ x y in
        if in_range range d then go (Int.max max_d d) rest else -1
    | _ -> max_d
  in
  go 0 includes

let rec last_entry = function
  | [ e ] -> e
  | _ :: rest -> last_entry rest
  | [] -> invalid_arg "last_entry"

(* Excludes survive a position filter only inside the span [lo, hi] of
   the includes' document [doc], where they could violate/confirm the
   condition. *)
let keep_excludes unit_ ~doc m lo hi =
  List.filter
    (fun e ->
      String.equal (entry_doc e) doc
      && unit_pos unit_ e >= lo && unit_pos unit_ e <= hi)
    m.excludes

(* FTDistance: every pair of adjacent include positions satisfies the range
   (the paper's FTWordDistanceAtMost generalized to all four range kinds).
   Includes are sorted by (document, position), so within one document they
   ascend by position. *)
let distance_match ?(counting = plain_counting) range unit_ m =
  match m.includes with
  | [] | [ _ ] -> Some m
  | first :: _ ->
      if not (same_doc m.includes) then None
      else
        let max_d = max_adjacent_distance counting range unit_ m.includes in
        if max_d < 0 then None
        else
          let lo = unit_pos unit_ first
          and hi = unit_pos unit_ (last_entry m.includes) in
          let damping =
            match range_bound range with
            | Some bound when bound > 0 ->
                1.0 -. (float_of_int max_d /. float_of_int (bound + 1))
            | _ -> 1.0
          in
          Some
            {
              m with
              excludes = keep_excludes unit_ ~doc:(entry_doc first) m lo hi;
              score = clamp_score (m.score *. damping);
            }

(* The smallest and largest unit position of a non-empty entry list, and
   its counted span. *)
let unit_extent c unit_ = function
  | [] -> invalid_arg "unit_extent"
  | first :: rest ->
      let rec go lo hi = function
        | [] -> (lo, hi)
        | e :: rest ->
            let p = unit_pos unit_ e in
            go (Int.min lo p) (Int.max hi p) rest
      in
      let p = unit_pos unit_ first in
      let lo, hi = go p p rest in
      let span =
        match unit_ with
        | Words -> word_span c ~doc:(entry_doc first) lo hi
        | Sentences | Paragraphs -> hi - lo + 1
      in
      (lo, hi, span)

(* FTWindow: all include positions fit in a window of n units. *)
let window_match ?(counting = plain_counting) n unit_ m =
  match m.includes with
  | [] -> Some m
  | first :: _ as includes ->
      if not (same_doc includes) then None
      else
        let lo, hi, span = unit_extent counting unit_ includes in
        if span <= n then
          let damping =
            if n > 0 then 1.0 -. (float_of_int (span - 1) /. float_of_int (n + 1))
            else 1.0
          in
          Some
            {
              m with
              excludes = keep_excludes unit_ ~doc:(entry_doc first) m lo hi;
              score = clamp_score (m.score *. damping);
            }
        else None

(* Approximate matching (the closing direction of Section 3.3: "if two
   matches do not satisfy a distance, they might be returned with a lower
   score").  The approximate variants keep every match: satisfying matches
   get the usual damped score, failing ones are penalized in proportion to
   how far they miss the constraint.  Useful under ft:score, where a hard
   filter would zero out near misses. *)

let miss_factor ~bound ~actual =
  (* in (0,1), smaller the further the miss *)
  let b = float_of_int (max 0 bound) and d = float_of_int (max 0 actual) in
  Float.max 0.05 ((b +. 1.0) /. (d +. 1.0))

let distance_match_approx ?(counting = plain_counting) range unit_ m =
  match distance_match ~counting range unit_ m with
  | Some m' -> Some m'
  | None ->
      if m.includes = [] || not (same_doc m.includes) then None
      else begin
        let rec worst acc = function
          | x :: (y :: _ as rest) ->
              worst (Int.max acc (pair_distance counting unit_ x y)) rest
          | _ -> acc
        in
        let actual = worst 0 m.includes in
        let factor =
          match range with
          | At_most b | Exactly b | From_to (_, b) -> miss_factor ~bound:b ~actual
          | At_least lo ->
              (* too close: penalize by how much closer than allowed *)
              Float.max 0.05 (float_of_int (actual + 1) /. float_of_int (lo + 1))
        in
        Some { m with score = clamp_score (m.score *. factor) }
      end

let window_match_approx ?(counting = plain_counting) n unit_ m =
  match window_match ~counting n unit_ m with
  | Some m' -> Some m'
  | None ->
      if m.includes = [] || not (same_doc m.includes) then None
      else begin
        let _, _, span = unit_extent counting unit_ m.includes in
        Some
          {
            m with
            score = clamp_score (m.score *. miss_factor ~bound:n ~actual:span);
          }
      end

(* FTScope: same/different sentence or paragraph across all includes. *)
let scope_ok kind m =
  (
  let proj, same =
    match kind with
    | Xquery.Ast.Same_sentence -> (Sentences, true)
    | Xquery.Ast.Same_paragraph -> (Paragraphs, true)
    | Xquery.Ast.Different_sentence -> (Sentences, false)
    | Xquery.Ast.Different_paragraph -> (Paragraphs, false)
  in
  let ok m =
    match m.includes with
    | [] | [ _ ] -> true
    | entries ->
        same_doc entries
        &&
        let ids = List.map (unit_pos proj) entries in
        if same then List.for_all (Int.equal (List.hd ids)) ids
        else
          let sorted = List.sort Int.compare ids in
          let rec distinct = function
            | x :: (y :: _ as rest) -> x <> y && distinct rest
            | _ -> true
          in
          distinct sorted
  in
  ok m)

(* FTTimes ("occurs <range> times"): combine occurrences.  Because a node's
   contained positions form a contiguous run in document order (Dewey
   pre-order), it suffices to emit *consecutive* windows of k occurrences:
   a node contains some k-subset iff it contains k consecutive occurrences.
   For exact/upper-bounded counts the window's complement becomes
   StringExcludes, forbidding additional occurrences inside the node.  This
   keeps the output linear instead of exponential; Section 4.1 calls FTTimes
   the one partially-blocking primitive, which this construction reflects —
   it must see all occurrences of a document before emitting. *)
let ft_times range a =
  (* Normalize the range to lo / optional hi.  Upper-bounded counts need
     StringExcludes forbidding further occurrences inside the answer node. *)
  let lo, hi =
    match range with
    | Exactly n -> (n, Some n)
    | At_most n -> (0, Some n)
    | At_least n -> (max 0 n, None)
    | From_to (l, h) -> (max 0 l, Some h)
  in
  let needs_excludes = hi <> None in
  (* group matches by document of their first include; includeless matches
     do not denote an occurrence and are dropped *)
  let by_doc = Hashtbl.create 8 in
  List.iter
    (fun m ->
      match m.includes with
      | [] -> ()
      | e :: _ ->
          let doc = e.posting.Ftindex.Posting.doc in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_doc doc) in
          Hashtbl.replace by_doc doc (m :: prev))
    a;
  let windows ms =
    (* [by_doc] accumulates by prepending, so [List.rev] restores input
       order; the sort must then be stable so ties on the first position
       (FTAnd can duplicate a word) enumerate the same windows as the
       fts-module implementation, whose order-by keeps input order too *)
    let arr =
      Array.of_list
        (List.stable_sort
           (fun m1 m2 ->
             Int.compare
               (Ftindex.Posting.abs_pos (List.hd m1.includes).posting)
               (Ftindex.Posting.abs_pos (List.hd m2.includes).posting))
           (List.rev ms))
    in
    let n = Array.length arr in
    let result = ref [] in
    (* windows of k >= 1 consecutive occurrences *)
    let emit k =
      for start = 0 to n - k do
        let window = Array.sub arr start k in
        let includes = List.concat_map (fun m -> m.includes) (Array.to_list window) in
        let excludes =
          if needs_excludes then begin
            let outside = ref [] in
            Array.iteri
              (fun i m ->
                if i < start || i >= start + k then
                  outside := m.includes @ !outside)
              arr;
            !outside
          end
          else []
        in
        let score = Array.fold_left (fun acc m -> acc *. m.score) 1.0 window in
        result :=
          make_match ~excludes ~score:(clamp_score score) includes :: !result
      done
    in
    (match hi with
    | None -> if lo >= 1 && lo <= n then emit lo
    | Some h ->
        for j = max 1 lo to min h n do
          emit j
        done);
    !result
  in
  let matches = Hashtbl.fold (fun _doc ms acc -> windows ms @ acc) by_doc [] in
  (* The zero-occurrence case cannot be a per-document window: "exactly 0"
     must exclude occurrences from every document an answer node could be
     in, and "at least 0" is trivially true. *)
  if lo = 0 then
    match hi with
    | None -> make_match [] :: matches
    | Some _ ->
        let all_includes = List.concat_map (fun m -> m.includes) a in
        make_match ~excludes:all_includes [] :: matches
  else matches

(* --- FTContent --- *)

(* The match's include extent starts, ends or spans the search context's
   token extent.  A match with no include is anchored nowhere. *)
let anchor_ok env site anchor m =
  match
    ( Ftindex.Inverted.node_extent (Env.index env) ~doc:site.doc
        ~node_dewey:site.dewey,
      m.includes )
  with
  | None, _ | _, [] -> false
  | Some (first, last), e :: rest ->
      let rec bounds lo hi = function
        | [] -> (lo, hi)
        | e :: rest ->
            let p = Ftindex.Posting.abs_pos e.posting in
            bounds (Int.min lo p) (Int.max hi p) rest
      in
      let p = Ftindex.Posting.abs_pos e.posting in
      let lo, hi = bounds p p rest in
      match anchor with
      | Xquery.Ast.At_start -> lo = first
      | Xquery.Ast.At_end -> hi = last
      | Xquery.Ast.Entire_content -> lo = first && hi = last

(* --- FTContains (paper Section 3.2.3.1, satisfiesMatch) --- *)

let rec any_inside index site = function
  | [] -> false
  | e :: rest ->
      Ftindex.Inverted.position_in_node index e.posting ~doc:site.doc
        ~node_dewey:site.dewey
      || any_inside index site rest

let rec all_inside index site = function
  | [] -> true
  | e :: rest ->
      Ftindex.Inverted.position_in_node index e.posting ~doc:site.doc
        ~node_dewey:site.dewey
      && all_inside index site rest

(* satisfiesMatch against one located node: every include inside it, no
   exclude inside it.  [includes_inside] says every include was read
   inside this very node (the per-node path reads its leaves within the
   node alone, and the operators only combine, drop or flip entries the
   leaves read), so only the excludes need the check. *)
let satisfies_match includes_inside env site m =
  let index = Env.index env in
  (includes_inside || all_inside index site m.includes)
  && not (any_inside index site m.excludes)

let satisfies ?(includes_inside = false) env site m =
  satisfies_match includes_inside env site m

(* Matches a node satisfies — used both by FTContains (non-empty?) and by
   per-node scoring.  Direct walks over the matches, which allocate no
   closure per call. *)
let rec satisfying inside env site = function
  | [] -> []
  | m :: rest ->
      if satisfies_match inside env site m then
        m :: satisfying inside env site rest
      else satisfying inside env site rest

let rec any_satisfying inside env site = function
  | [] -> false
  | m :: rest ->
      satisfies_match inside env site m || any_satisfying inside env site rest

let site_matches ?(includes_inside = false) env site a =
  satisfying includes_inside env site a

let site_satisfies ?(includes_inside = false) env site a =
  any_satisfying includes_inside env site a

let matches_for_node env node a =
  match locate env node with
  | None -> []
  | Some site -> site_matches env site a

let node_satisfies env node a =
  match locate env node with
  | None -> false
  | Some site -> site_satisfies env site a

(* The FTIgnoreOption ("without content Expr"): positions inside ignored
   subtrees may not contribute to matches.  Matches relying on an ignored
   include are dropped; excludes inside ignored subtrees are waived. *)
let ignore_filter env ignored_nodes =
  let index = Env.index env in
  let ignored_sites = List.filter_map (locate env) ignored_nodes in
  let ignored e =
    List.exists
      (fun site ->
        Ftindex.Inverted.position_in_node index e.posting ~doc:site.doc
          ~node_dewey:site.dewey)
      ignored_sites
  in
  fun m ->
    if List.exists ignored m.includes then None
    else Some { m with excludes = List.filter (fun e -> not (ignored e)) m.excludes }
