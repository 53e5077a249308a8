(* Seeded workload generation: the corpus, the open-loop schedule and the
   write probe of each benchmark workload.

   Everything here is a pure function of (workload, seed, seconds): the
   same arguments give a byte-identical {!to_string}.  Query words are
   drawn from fixed Zipf-rank bands of the corpus vocabulary, so a
   template's cost depends on the band, not on the seed — different
   seeds exercise different words of the same frequency class, which
   keeps run-to-run spread down without replaying one fixed query set. *)

type family = Phrase | Boolean | Ranked

let family_name = function
  | Phrase -> "phrase"
  | Boolean -> "boolean"
  | Ranked -> "ranked"

let families = [ Phrase; Boolean; Ranked ]

type query = { family : family; text : string; k : int option }
(** [k = Some k]: a ranked query, sent with [Merge_topk k]. *)

type op = Query of query | Update of Ftindex.Wal.op list
type event = { due_ms : float; op : op }

type topology = Single | Sharded of int

type workload = {
  name : string;
  docs : int;  (** corpus size in documents *)
  topology : topology;
  rate : float;  (** open-loop arrivals per second *)
  mix : (family * float) list;  (** family weights *)
  templates : int;  (** distinct templates per family *)
  popularity_skew : float;  (** Zipf skew of template popularity *)
  template : family -> Corpus.Splitmix.t -> int -> query;
      (** [template family rng slot] *)
  update_every : int option;
      (** interleave an update batch after every n-th query *)
  probe_batches : int;  (** sequential update batches after the reads *)
}

let vocab_size = 150

(* The corpus profile every workload shares (R9's book shape). *)
let corpus w ~seed =
  Corpus.Generator.books
    {
      Corpus.Generator.default_profile with
      Corpus.Generator.seed;
      doc_count = w.docs;
      sections_per_doc = 2;
      paras_per_section = 3;
      words_per_para = 30;
      vocab_size;
    }
  |> List.map (fun (uri, d) -> (uri, Xmlkit.Printer.to_string d))

(* A word whose frequency rank lies in [lo, hi). *)
let word rng (lo, hi) =
  Corpus.Vocab.word_for_rank (lo + Corpus.Splitmix.int rng (hi - lo))

let count_of path sel =
  Printf.sprintf "count(collection()//%s[. ftcontains %s])" path sel

(* The ranked family: a scored FLWOR, best first, cut to k.  Items lead
   with the score so the router's top-k merge can read it. *)
let ranked ~k sel =
  {
    family = Ranked;
    k = Some k;
    text =
      Printf.sprintf
        {|subsequence(for $b in collection()//book let $s := ft:score($b, %s) where $s > 0 order by $s descending return concat(string($s), " ", string($b/@id)), 1, %d)|}
        sel k;
  }

let q family text = { family; text; k = None }
let quoted w = "\"" ^ w ^ "\""

(* -------------------------------------------------------- workloads *)

(* Evaluation cost follows the posting-list lengths of the query words,
   so each workload draws its words from one frequency band: the seed
   picks words, the band fixes what they cost. *)

(* Small corpus, cheap queries, strongly repeated templates: protocol and
   parse cost are the same order as evaluation. *)
let point_small_template family rng slot =
  let w () = word rng (5, 40) in
  match family with
  | Phrase ->
      if slot mod 2 = 0 then q Phrase (count_of "book" (quoted (w ())))
      else q Phrase (count_of "book" (Printf.sprintf "\"%s %s\"" (w ()) (w ())))
  | Boolean -> q Boolean (count_of "book" (Printf.sprintf "\"%s\" && \"%s\"" (w ()) (w ())))
  | Ranked -> ranked ~k:3 (quoted (w ()))

(* Phrase, window / distance and ranked selections over two words of
   [band]: the larger corpora's templates. *)
let two_word_template ~band ~k family rng slot =
  let w () = word rng band in
  let a = w () and b = w () in
  match family with
  | Phrase -> q Phrase (count_of "book" (Printf.sprintf "\"%s %s\"" a b))
  | Boolean ->
      q Boolean
        (count_of "book"
           (if slot mod 2 = 0 then Printf.sprintf "\"%s\" && \"%s\" window 14 words" a b
            else Printf.sprintf "\"%s\" && \"%s\" distance at most 8 words" a b))
  | Ranked -> ranked ~k (Printf.sprintf "\"%s %s\"" a b)

let workloads =
  [
    {
      name = "point-small";
      docs = 8;
      topology = Single;
      rate = 3600.0;
      mix = [ (Phrase, 0.55); (Boolean, 0.15); (Ranked, 0.3) ];
      templates = 8;
      popularity_skew = 1.5;
      template = point_small_template;
      update_every = None;
      probe_batches = 100;
    };
    {
      name = "scan-large";
      docs = 200;
      topology = Single;
      rate = 60.0;
      mix = [ (Phrase, 0.4); (Boolean, 0.3); (Ranked, 0.3) ];
      templates = 30;
      popularity_skew = 0.3;
      template = two_word_template ~band:(10, 30) ~k:10;
      update_every = None;
      probe_batches = 20;
    };
    {
      name = "read-write";
      docs = 48;
      topology = Single;
      rate = 100.0;
      mix = [ (Phrase, 0.4); (Boolean, 0.3); (Ranked, 0.3) ];
      templates = 20;
      popularity_skew = 1.0;
      template = two_word_template ~band:(5, 40) ~k:5;
      update_every = Some 10;
      probe_batches = 20;
    };
    {
      name = "sharded-ranked";
      docs = 48;
      topology = Sharded 2;
      rate = 600.0;
      mix = [ (Phrase, 0.3); (Boolean, 0.2); (Ranked, 0.5) ];
      templates = 20;
      popularity_skew = 1.0;
      template = two_word_template ~band:(5, 40) ~k:5;
      update_every = None;
      probe_batches = 40;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* --------------------------------------------------------- schedule *)

(* Template [slot] of [family]: a function of the seed alone, not of how
   many draws preceded it. *)
let template_of w ~seed family slot =
  let fid = match family with Phrase -> 0 | Boolean -> 1 | Ranked -> 2 in
  w.template family
    (Corpus.Splitmix.create ((seed * 1_000_003) + (fid * 7919) + slot))
    slot

let pick_family w rng =
  let total = List.fold_left (fun a (_, x) -> a +. x) 0.0 w.mix in
  let u = Corpus.Splitmix.float rng *. total in
  let rec go acc = function
    | [ (f, _) ] -> f
    | (f, x) :: rest -> if u < acc +. x then f else go (acc +. x) rest
    | [] -> invalid_arg "Gen.pick_family: empty mix"
  in
  go 0.0 w.mix

(* Documents written by the benchmark: the corpus's book shape and Zipf
   word distribution, so a run's updates do not drift the index towards
   smaller or flatter documents, with an [id] the durability check can
   look for. *)
let update_vocab = Corpus.Vocab.create vocab_size

let update_doc rng n =
  let para () =
    List.init 3 (fun _ ->
        String.concat " " (List.init 10 (fun _ -> Corpus.Vocab.sample update_vocab rng)))
    |> String.concat ". "
  in
  let section k =
    Printf.sprintf "<section><title>Section %d</title>%s</section>" k
      (String.concat "" (List.init 3 (fun _ -> "<p>" ^ para () ^ ".</p>")))
  in
  Printf.sprintf "<book id=\"u%d\"><title>Update %d</title>%s%s</book>" n n (section 1)
    (section 2)

(* Update batches cycle add, replace, remove, so every batch of three
   leaves the document count where it was: the write path sees all three
   operations and the corpus does not drift over a run. *)
let updater w ~seed =
  let rng = Corpus.Splitmix.create ((seed * 31) + 1) in
  let live = ref (List.init w.docs (Printf.sprintf "book%d.xml")) and n = ref 0 in
  let add uri =
    incr n;
    Ftindex.Wal.Add_doc { uri; source = update_doc rng !n }
  in
  let any () = Corpus.Splitmix.pick rng (Array.of_list !live) in
  fun size ->
    List.init size (fun i ->
        match i mod 3 with
        | 0 ->
            let uri = Printf.sprintf "upd-%d.xml" (!n + 1) in
            live := uri :: !live;
            add uri
        | 1 -> add (any ())
        | _ ->
            let uri = any () in
            live := List.filter (( <> ) uri) !live;
            Ftindex.Wal.Remove_doc uri)

let requests_for w ~seconds = max 1 (int_of_float (Float.ceil (w.rate *. seconds)))

(* A run's inputs: the open-loop schedule — [requests_for w ~seconds]
   queries at fixed spacing [1 / rate], with an update batch after every
   [update_every]-th query (due with it) — and the write probe run after
   it.  One update stream feeds both, so the probe replaces and removes
   documents that are live when it runs. *)
let inputs w ~seed ~seconds =
  let rng = Corpus.Splitmix.create seed in
  let popularity = Corpus.Vocab.create ~skew:w.popularity_skew w.templates in
  let next_batch = updater w ~seed in
  let events = ref [] in
  for i = 0 to requests_for w ~seconds - 1 do
    let due_ms = 1000.0 *. float_of_int i /. w.rate in
    let family = pick_family w rng in
    let slot, _ = Corpus.Vocab.draw popularity rng in
    events := { due_ms; op = Query (template_of w ~seed family slot) } :: !events;
    match w.update_every with
    | Some n when i mod n = n - 1 ->
        events := { due_ms; op = Update (next_batch 3) } :: !events
    | _ -> ()
  done;
  let events = Array.of_list (List.rev !events) in
  (events, List.init w.probe_batches (fun _ -> next_batch 3))

let op_to_string = function
  | Query { family; text; k } ->
      Printf.sprintf "Q %s k=%s %s" (family_name family)
        (match k with Some k -> string_of_int k | None -> "-")
        text
  | Update ops ->
      String.concat "; "
        (List.map
           (function
             | Ftindex.Wal.Add_doc { uri; source } ->
                 Printf.sprintf "U+ %s %s" uri source
             | Ftindex.Wal.Remove_doc uri -> Printf.sprintf "U- %s" uri)
           ops)

let to_string events =
  let b = Buffer.create (Array.length events * 96) in
  Array.iter
    (fun { due_ms; op } -> Printf.bprintf b "@%.3f %s\n" due_ms (op_to_string op))
    events;
  Buffer.contents b
