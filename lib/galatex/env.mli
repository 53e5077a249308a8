(** The full-text evaluation environment: the index plus match-option
    resources (thesauri) and the expansion memo table. *)

type t

val create :
  ?thesauri:(string * Tokenize.Thesaurus.t) list ->
  ?default_thesaurus:Tokenize.Thesaurus.t ->
  Ftindex.Inverted.t ->
  t

val index : t -> Ftindex.Inverted.t

val find_thesaurus : t -> string option -> Tokenize.Thesaurus.t option
(** [None] selects the default thesaurus; [Some name] a registered one. *)

val cached : t -> string -> (unit -> string -> bool) -> string list
(** [cached t key matcher]: the distinct words of the index satisfying the
    predicate [matcher ()] builds, in {!Ftindex.Inverted.distinct_words}
    order, memoized under [key] (token + option signature).  The entry
    keeps the predicate, so {!update} can revise it.  Thread-safe: the
    memo table is mutex-guarded, and the predicate (which must be
    deterministic) is built and run outside the lock. *)

val update :
  t -> Ftindex.Inverted.t -> added:string list -> removed:string list -> t
(** The environment over [index], an index that differs from [t]'s by one
    live update whose vocabulary delta is [added] and [removed], sorted
    ({!Ftindex.Wal.apply_delta}).  It starts with [t]'s memo table
    revised by that delta: removed words leave each entry's keys, and
    each added word joins the entries whose predicate it satisfies.
    Costs one pass over the entries; [t] itself is unchanged, so its
    readers go on as they were. *)

val misses : t -> int
(** Expansions computed by scanning the distinct-word list, over this
    environment and every one derived from it by {!update}. *)

val clear_cache : t -> unit
