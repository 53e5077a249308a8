(* Corpus statistics and per-entry scores (Section 3.3).

   The paper requires each inverted-list entry to carry "the probability
   that the entry contains a given word", a value in (0,1], and suggests
   tf/idf.  We use a bounded tf.idf:

     score(w, d) = (0.5 + 0.5 * tf(w,d) / max_tf(d)) * idf_norm(w)
     idf_norm(w) = ln(1 + N / df(w)) / ln(1 + N)

   Both factors lie in (0,1], so the product does too, and the score grows
   with term frequency and rarity — enough for the probabilistic algebra's
   requirements to hold downstream.  tf(w,d) is the length of d's run of w,
   supplied by the caller when a query reads the run.

   The tables are persistent maps: recording or forgetting a document
   touches only its own words, and successive index versions share the
   rest. *)

module String_map = Map.Make (String)

type t = {
  max_tf : int String_map.t;  (** doc -> largest tf of any word *)
  df : int String_map.t;  (** word -> number of documents containing it *)
  doc_count : int;
}

let empty = { max_tf = String_map.empty; df = String_map.empty; doc_count = 0 }

let add_document t ~doc ~max_tf words =
  if String_map.mem doc t.max_tf then
    invalid_arg ("Stats.add_document: duplicate document " ^ doc);
  {
    max_tf = String_map.add doc max_tf t.max_tf;
    df =
      List.fold_left
        (fun df w ->
          String_map.update w
            (fun n -> Some (1 + Option.value ~default:0 n))
            df)
        t.df words;
    doc_count = t.doc_count + 1;
  }

let remove_document t ~doc words =
  if not (String_map.mem doc t.max_tf) then t
  else
    {
      max_tf = String_map.remove doc t.max_tf;
      df =
        List.fold_left
          (fun df w ->
            (* drop zero entries so the tables match a from-scratch build *)
            String_map.update w
              (function Some n when n > 1 -> Some (n - 1) | _ -> None)
              df)
          t.df words;
      doc_count = t.doc_count - 1;
    }

let doc_count t = t.doc_count

let document_frequency t w =
  match String_map.find w t.df with n -> n | exception Not_found -> 0

let idf_norm t w =
  let n = float_of_int (max 1 (doc_count t)) in
  let df = float_of_int (max 1 (document_frequency t w)) in
  log (1.0 +. (n /. df)) /. log (1.0 +. n)

let max_tf t ~doc = String_map.find_opt doc t.max_tf

let tf_idf ~max_tf ~tf ~idf =
  match max_tf with
  | None -> 1.0
  | Some max_tf ->
      let tf_part = 0.5 +. (0.5 *. float_of_int tf /. float_of_int (Int.max 1 max_tf)) in
      let s = tf_part *. idf in
      (* clamp away from 0 for pathological corpora; scores must be (0,1] *)
      if s <= 0.0 then epsilon_float else if s > 1.0 then 1.0 else s

let score t ~doc ~tf ~idf = tf_idf ~max_tf:(max_tf t ~doc) ~tf ~idf
