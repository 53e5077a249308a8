(* Corpus statistics and per-entry scores (Section 3.3).

   The paper requires each inverted-list entry to carry "the probability
   that the entry contains a given word", a value in (0,1], and suggests
   tf/idf.  We use a bounded tf.idf:

     score(w, d) = (0.5 + 0.5 * tf(w,d) / max_tf(d)) * idf_norm(w)
     idf_norm(w) = ln(1 + N / df(w)) / ln(1 + N)

   Both factors lie in (0,1], so the product does too, and the score grows
   with term frequency and rarity — enough for the probabilistic algebra's
   requirements to hold downstream.  tf(w,d) is the length of d's run of w,
   supplied by the caller when a query reads the run. *)

type t = {
  max_tf : (string, int) Hashtbl.t;  (** doc -> largest tf of any word *)
  df : (string, int) Hashtbl.t;  (** word -> number of documents containing it *)
}

let create () = { max_tf = Hashtbl.create 16; df = Hashtbl.create 256 }

let add_document t ~doc tokens =
  if Hashtbl.mem t.max_tf doc then
    invalid_arg ("Stats.add_document: duplicate document " ^ doc);
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (tok : Tokenize.Token.t) ->
      let w = tok.Tokenize.Token.norm in
      Hashtbl.replace counts w (1 + Option.value ~default:0 (Hashtbl.find_opt counts w)))
    tokens;
  (* functional update: callers hold on to earlier snapshots *)
  let max_tf = Hashtbl.copy t.max_tf and df = Hashtbl.copy t.df in
  Hashtbl.replace max_tf doc (Hashtbl.fold (fun _ c m -> max c m) counts 1);
  Hashtbl.iter
    (fun w _ ->
      Hashtbl.replace df w (1 + Option.value ~default:0 (Hashtbl.find_opt df w)))
    counts;
  { max_tf; df }

let remove_document t ~doc words =
  if not (Hashtbl.mem t.max_tf doc) then t
  else begin
    let max_tf = Hashtbl.copy t.max_tf and df = Hashtbl.copy t.df in
    Hashtbl.remove max_tf doc;
    List.iter
      (fun w ->
        (* drop zero entries so the tables match a from-scratch build *)
        match Hashtbl.find_opt df w with
        | Some n when n > 1 -> Hashtbl.replace df w (n - 1)
        | Some _ | None -> Hashtbl.remove df w)
      words;
    { max_tf; df }
  end

let doc_count t = Hashtbl.length t.max_tf
let document_frequency t w = Option.value ~default:0 (Hashtbl.find_opt t.df w)

let idf_norm t w =
  let n = float_of_int (max 1 (doc_count t)) in
  let df = float_of_int (max 1 (document_frequency t w)) in
  log (1.0 +. (n /. df)) /. log (1.0 +. n)

let score t ~doc ~tf w =
  match Hashtbl.find_opt t.max_tf doc with
  | None -> 1.0
  | Some max_tf ->
      let tf_part = 0.5 +. (0.5 *. float_of_int tf /. float_of_int (max 1 max_tf)) in
      let s = tf_part *. idf_norm t w in
      (* clamp away from 0 for pathological corpora; scores must be (0,1] *)
      if s <= 0.0 then epsilon_float else if s > 1.0 then 1.0 else s
