open Tokenize

let check = Alcotest.check

let words tokens = List.map (fun (t : Token.t) -> t.Token.word) tokens
let positions tokens = List.map (fun (t : Token.t) -> t.Token.abs_pos) tokens

let test_phrase_tokenization () =
  check (Alcotest.list Alcotest.string) "delimiters"
    [ "non"; "immigrant"; "status" ]
    (Segmenter.words_of_phrase "non-immigrant status");
  check (Alcotest.list Alcotest.string) "punct and spaces"
    [ "a"; "b"; "c" ]
    (Segmenter.words_of_phrase "  a,   b...c!");
  check (Alcotest.list Alcotest.string) "empty" []
    (Segmenter.words_of_phrase " ... !?");
  check (Alcotest.list Alcotest.int) "positions 1-based" [ 1; 2; 3 ]
    (positions (Segmenter.tokenize_phrase "one two three"))

let doc_of src = Xmlkit.Parser.parse_document src

let test_document_positions () =
  let doc = doc_of "<book><title>Software Usability</title><p>Usability testing matters.</p></book>" in
  let tokens = Segmenter.tokenize_document doc in
  check (Alcotest.list Alcotest.string) "words in document order"
    [ "Software"; "Usability"; "Usability"; "testing"; "matters" ]
    (words tokens);
  check (Alcotest.list Alcotest.int) "absolute positions" [ 1; 2; 3; 4; 5 ]
    (positions tokens);
  (* identifiers follow the Figure 5(a) convention: node dewey + position *)
  let second_usability = List.nth tokens 2 in
  check Alcotest.string "TokenInfo identifier" "1.2.1.3"
    (Token.identifier second_usability)

let test_fig1_positions () =
  (* the reconstructed running example has its planted positions *)
  let doc = Corpus.Fig1.document () in
  let tokens = Segmenter.tokenize_document doc in
  check Alcotest.int "total words" Corpus.Fig1.total_words (List.length tokens);
  let positions_of w =
    List.filter_map
      (fun (t : Token.t) -> if t.Token.norm = w then Some t.Token.abs_pos else None)
      tokens
  in
  check (Alcotest.list Alcotest.int) "usability" Corpus.Fig1.usability_positions
    (positions_of "usability");
  check (Alcotest.list Alcotest.int) "software" Corpus.Fig1.software_positions
    (positions_of "software");
  check (Alcotest.list Alcotest.int) "users" Corpus.Fig1.users_positions
    (positions_of "users")

let test_sentences () =
  let doc = doc_of "<p>One two. Three four! Five six? Seven</p>" in
  let tokens = Segmenter.tokenize_document doc in
  check (Alcotest.list Alcotest.int) "sentence ids"
    [ 1; 1; 2; 2; 3; 3; 4 ]
    (List.map (fun (t : Token.t) -> t.Token.sentence) tokens)

let test_paragraphs () =
  let doc = doc_of "<doc><p>a b</p><p>c d. e</p><note>f</note></doc>" in
  let tokens = Segmenter.tokenize_document doc in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "paragraph ids"
    [ ("a", 1); ("b", 1); ("c", 2); ("d", 2); ("e", 2); ("f", 3) ]
    (List.map (fun (t : Token.t) -> (t.Token.word, t.Token.para)) tokens);
  (* paragraph break resets the sentence too *)
  check Alcotest.bool "sentence advances at paragraph" true
    ((List.nth tokens 2).Token.sentence > (List.nth tokens 1).Token.sentence)

let test_blank_line_paragraphs () =
  let doc = doc_of "<doc>first para\n\nsecond para</doc>" in
  let tokens = Segmenter.tokenize_document doc in
  check (Alcotest.list Alcotest.int) "blank line splits" [ 1; 1; 2; 2 ]
    (List.map (fun (t : Token.t) -> t.Token.para) tokens)

let test_ignore_elements () =
  let config =
    { Segmenter.default_config with Segmenter.ignore_elements = [ "title" ] }
  in
  let doc = doc_of "<doc><title>skip me</title><p>keep</p></doc>" in
  check (Alcotest.list Alcotest.string) "ignored subtree" [ "keep" ]
    (words (Segmenter.tokenize_document ~config doc))

let test_attributes_not_tokenized () =
  let doc = doc_of "<doc attr=\"hidden words\"><p>visible</p></doc>" in
  check (Alcotest.list Alcotest.string) "only element text" [ "visible" ]
    (words (Segmenter.tokenize_document doc))

(* --- Porter stemmer: vectors from Porter (1980) and the paper --- *)

let porter_vectors =
  [
    ("connections", "connect");  (* the paper's own example *)
    ("connection", "connect");
    ("connected", "connect");
    ("caresses", "caress");
    ("ponies", "poni");
    ("ties", "ti");
    ("caress", "caress");
    ("cats", "cat");
    ("feed", "feed");
    ("agreed", "agre");
    ("plastered", "plaster");
    ("bled", "bled");
    ("motoring", "motor");
    ("sing", "sing");
    ("conflated", "conflat");
    ("troubled", "troubl");
    ("sized", "size");
    ("hopping", "hop");
    ("tanned", "tan");
    ("falling", "fall");
    ("hissing", "hiss");
    ("fizzed", "fizz");
    ("failing", "fail");
    ("filing", "file");
    ("happy", "happi");
    ("sky", "sky");
    ("relational", "relat");
    ("conditional", "condit");
    ("rational", "ration");
    ("valenci", "valenc");
    ("digitizer", "digit");
    ("operator", "oper");
    ("feudalism", "feudal");
    ("decisiveness", "decis");
    ("hopefulness", "hope");
    ("callousness", "callous");
    ("formaliti", "formal");
    ("sensitiviti", "sensit");
    ("sensibiliti", "sensibl");
    ("triplicate", "triplic");
    ("formative", "form");
    ("formalize", "formal");
    ("electriciti", "electr");
    ("electrical", "electr");
    ("hopeful", "hope");
    ("goodness", "good");
    ("revival", "reviv");
    ("allowance", "allow");
    ("inference", "infer");
    ("airliner", "airlin");
    ("gyroscopic", "gyroscop");
    ("adjustable", "adjust");
    ("defensible", "defens");
    ("irritant", "irrit");
    ("replacement", "replac");
    ("adjustment", "adjust");
    ("dependent", "depend");
    ("adoption", "adopt");
    ("homologou", "homolog");
    ("communism", "commun");
    ("activate", "activ");
    ("angulariti", "angular");
    ("homologous", "homolog");
    ("effective", "effect");
    ("bowdlerize", "bowdler");
    ("probate", "probat");
    ("rate", "rate");
    ("cease", "ceas");
    ("controll", "control");
    ("roll", "roll");
    ("testing", "test");
    ("tests", "test");
  ]

let test_porter () =
  List.iter
    (fun (input, expected) ->
      check Alcotest.string input expected (Porter.stem input))
    porter_vectors

let test_porter_short_words () =
  List.iter
    (fun w -> check Alcotest.string w w (Porter.stem w))
    [ "a"; "is"; "be"; "by" ]

let prop_porter_never_longer =
  QCheck2.Test.make ~name:"stemming never lengthens a word" ~count:300
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 15))
    (fun w -> String.length (Porter.stem w) <= String.length w)

let prop_porter_non_letters_unchanged =
  QCheck2.Test.make ~name:"non-lowercase words pass through" ~count:100
    QCheck2.Gen.(string_size ~gen:(oneofl [ 'A'; '1'; '-'; 'z' ]) (int_range 3 8))
    (fun w ->
      (not (String.exists (fun c -> not (c >= 'a' && c <= 'z')) w))
      || Porter.stem w = w)

(* --- normalization --- *)

let test_diacritics () =
  check Alcotest.string "latin1" "cafe" (Normalize.strip_diacritics "café");
  check Alcotest.string "multiple" "resume" (Normalize.strip_diacritics "résumé");
  check Alcotest.string "ascii untouched" "plain" (Normalize.strip_diacritics "plain");
  check Alcotest.string "upper" "Elan" (Normalize.strip_diacritics "Élan")

let prop_casefold_lowercase =
  QCheck2.Test.make ~name:"casefold = String.lowercase_ascii" ~count:300
    QCheck2.Gen.(
      string_size
        ~gen:(oneofl [ 'a'; 'Z'; 'M'; 'q'; '0'; '-'; '\xc3'; '\xa9'; '@'; '[' ])
        (int_range 0 10))
    (fun s -> Normalize.casefold s = String.lowercase_ascii s)

let test_lowercase_token_shares_word () =
  let lower = Token.make ~abs_pos:1 "usability" in
  check Alcotest.bool "lowercase: norm == word" true
    (lower.Token.norm == lower.Token.word);
  let mixed = Token.make ~abs_pos:2 "Usability" in
  check Alcotest.string "mixed case folded" "usability" mixed.Token.norm

let test_special_chars_pattern () =
  check Alcotest.string "pattern" "non.?immigrant"
    (Normalize.special_chars_to_pattern "non-immigrant");
  check Alcotest.string "no specials" "word"
    (Normalize.special_chars_to_pattern "word")

(* --- stop words --- *)

let test_stopwords () =
  check Alcotest.bool "the" true (Stopwords.is_default_stop_word "the");
  check Alcotest.bool "THE case folded" true (Stopwords.is_default_stop_word "THE");
  check Alcotest.bool "usability" false (Stopwords.is_default_stop_word "usability");
  let set = Stopwords.Set.of_list [ "foo"; "BAR" ] in
  check Alcotest.bool "custom" true (Stopwords.Set.mem set "bar");
  check Alcotest.int "cardinal" 2 (Stopwords.Set.cardinal set)

(* --- thesaurus --- *)

let test_thesaurus () =
  let th =
    Thesaurus.synonym_ring ~name:"t" [ [ "car"; "auto"; "vehicle" ]; [ "big"; "large" ] ]
  in
  check (Alcotest.list Alcotest.string) "ring" [ "auto"; "car"; "vehicle" ]
    (Thesaurus.lookup th "car");
  check (Alcotest.list Alcotest.string) "self only" [ "unknown" ]
    (Thesaurus.lookup th "unknown");
  let levels =
    Thesaurus.create ~name:"chain"
      [ ("broader", "a", "b"); ("broader", "b", "c"); ("narrower", "b", "a") ]
  in
  check (Alcotest.list Alcotest.string) "one level" [ "a"; "b" ]
    (Thesaurus.lookup levels ~levels:1 "a");
  check (Alcotest.list Alcotest.string) "two levels" [ "a"; "b"; "c" ]
    (Thesaurus.lookup levels ~levels:2 "a");
  check (Alcotest.list Alcotest.string) "relationship filter" [ "a"; "b" ]
    (Thesaurus.lookup levels ~relationship:"broader" ~levels:1 "a")

let prop_tokenize_positions_monotonic =
  QCheck2.Test.make ~name:"document token positions strictly increase" ~count:100
    QCheck2.Gen.(
      map
        (fun texts ->
          Xmlkit.Node.seal
            (Xmlkit.Node.document
               [
                 Xmlkit.Node.element "d"
                   (List.map
                      (fun t -> Xmlkit.Node.element "p" [ Xmlkit.Node.text t ])
                      texts);
               ]))
        (list_size (int_range 0 5)
           (oneofl [ "a b c."; "x. y!"; ""; "one-two three"; "  spaces  " ])))
    (fun doc ->
      let tokens = Segmenter.tokenize_document doc in
      let rec increasing = function
        | (a : Token.t) :: (b :: _ as rest) ->
            a.Token.abs_pos + 1 = b.Token.abs_pos && increasing rest
        | _ -> true
      in
      increasing tokens
      && List.for_all (fun (t : Token.t) -> t.Token.sentence >= 1 && t.Token.para >= 1) tokens)

let tests =
  [
    Alcotest.test_case "phrase tokenization" `Quick test_phrase_tokenization;
    Alcotest.test_case "document positions" `Quick test_document_positions;
    Alcotest.test_case "Figure 1 planted positions" `Quick test_fig1_positions;
    Alcotest.test_case "sentence segmentation" `Quick test_sentences;
    Alcotest.test_case "paragraph segmentation" `Quick test_paragraphs;
    Alcotest.test_case "blank-line paragraphs" `Quick test_blank_line_paragraphs;
    Alcotest.test_case "ignore elements" `Quick test_ignore_elements;
    Alcotest.test_case "attributes not tokenized" `Quick test_attributes_not_tokenized;
    Alcotest.test_case "porter vectors" `Quick test_porter;
    Alcotest.test_case "porter short words" `Quick test_porter_short_words;
    Alcotest.test_case "diacritics" `Quick test_diacritics;
    QCheck_alcotest.to_alcotest prop_casefold_lowercase;
    Alcotest.test_case "lowercase token shares its word" `Quick
      test_lowercase_token_shares_word;
    Alcotest.test_case "special chars pattern" `Quick test_special_chars_pattern;
    Alcotest.test_case "stop words" `Quick test_stopwords;
    Alcotest.test_case "thesaurus" `Quick test_thesaurus;
    QCheck_alcotest.to_alcotest prop_porter_never_longer;
    QCheck_alcotest.to_alcotest prop_porter_non_letters_unchanged;
    QCheck_alcotest.to_alcotest prop_tokenize_positions_monotonic;
  ]
