(* The full-text evaluation environment: the inverted index plus the
   resources match options draw on (named thesauri, the default thesaurus)
   and a memo table for match-option word expansion, which otherwise scans
   the distinct-word list once per (token, options) pair — the paper's own
   technique (Section 3.2.3.2).

   An entry keeps the predicate its keys were selected with, so a live
   update carries the table over to the next index version instead of
   starting it empty: the words the update took out of the distinct-word
   list leave every entry, and each word it brought in joins the entries
   whose predicate it satisfies.  An entry then holds exactly what a scan
   of the new list would select.

   One environment may serve many concurrent requests (the query daemon
   shares a single engine across its worker pool), so the memo table — the
   only mutable state here — is guarded by a mutex.  Expansion is
   deterministic, so losing a race just means computing the same list
   twice; what the lock prevents is concurrent Hashtbl mutation. *)

type entry = {
  keys : string list;  (** matching distinct words, in list order *)
  matches : string -> bool;  (** the predicate that selected them *)
}

type t = {
  index : Ftindex.Inverted.t;
  thesauri : (string * Tokenize.Thesaurus.t) list;
  default_thesaurus : Tokenize.Thesaurus.t option;
  expansion_cache : (string, entry) Hashtbl.t;
      (** key: token + option signature + terms *)
  cache_lock : Mutex.t;
  misses : int Atomic.t;  (** shared by every version derived by {!update} *)
}

let create ?(thesauri = []) ?default_thesaurus index =
  {
    index;
    thesauri;
    default_thesaurus;
    expansion_cache = Hashtbl.create 64;
    cache_lock = Mutex.create ();
    misses = Atomic.make 0;
  }

let index t = t.index

let find_thesaurus t = function
  | None -> t.default_thesaurus
  | Some name -> List.assoc_opt name t.thesauri

let locked t f =
  Mutex.lock t.cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.cache_lock) f

let cached t key matcher =
  match locked t (fun () -> Hashtbl.find_opt t.expansion_cache key) with
  | Some e -> e.keys
  | None ->
      (* compute outside the lock: the scan reads the whole distinct-word
         list, and the result is deterministic *)
      Atomic.incr t.misses;
      let matches = matcher () in
      let keys = Ftindex.Inverted.filter_words t.index matches in
      locked t (fun () ->
          Hashtbl.replace t.expansion_cache key { keys; matches });
      keys

let rec merge a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
      if String.compare x y <= 0 then x :: merge a' b else y :: merge a b'

(* [added] and [removed] are sorted; an unchanged entry is kept as is *)
let revise ~added ~removed e =
  let gone k = List.exists (String.equal k) removed in
  match List.filter e.matches added with
  | [] when not (List.exists gone e.keys) -> e
  | fresh ->
      { e with keys = merge (List.filter (fun k -> not (gone k)) e.keys) fresh }

let update t index ~added ~removed =
  let cache = locked t (fun () -> Hashtbl.copy t.expansion_cache) in
  if added <> [] || removed <> [] then
    Hashtbl.filter_map_inplace
      (fun _ e -> Some (revise ~added ~removed e))
      cache;
  { t with index; expansion_cache = cache; cache_lock = Mutex.create () }

let misses t = Atomic.get t.misses
let clear_cache t = locked t (fun () -> Hashtbl.reset t.expansion_cache)
