(** The AllMatches data model (paper Section 3.1.2): all position solutions
    of a full-text selection, viewed as a DNF formula.  Each {!match_} is a
    disjunct; includes assert that the answer node contains a position,
    excludes that it does not. *)

type entry = {
  query_pos : int;
      (** relative position of the originating search word in the query
          (consumed by FTOrdered, paper Section 3.2.2) *)
  posting : Ftindex.Posting.t;
}

type match_ = {
  includes : entry list;  (** sorted by (document, absolute position) *)
  excludes : entry list;
  score : float;  (** Section 3.3 probabilistic score, in (0,1] *)
}

type t = match_ list
(** The disjuncts, and nothing else: a content anchor ([at start], [at
    end], [entire content]) is applied while the selection is evaluated,
    as a filter on its operand's matches at the search context. *)

val entry : ?query_pos:int -> Ftindex.Posting.t -> entry

val sort_entries : entry list -> entry list
(** Stable sort by (document, absolute position). *)

val merge_entries : entry list -> entry list -> entry list
(** [merge_entries a b] of two sorted lists equals [sort_entries (a @ b)]
    (on equal positions [a]'s entries come first) in one linear pass. *)

val make_match : ?excludes:entry list -> ?score:float -> entry list -> match_
(** Build a match; includes are sorted. [score] defaults to 1.0. *)

val size : t -> int
(** Number of matches — the materialization metric of Section 4. *)

val equal_solutions : t -> t -> bool
(** Same solution sets: equal include/exclude position multisets per match,
    ignoring scores and match order.  Used by round-trip and
    cross-implementation tests. *)

(** {1 XML externalization (Figure 3 / Figure 5(c))} *)

val to_xml : t -> Xmlkit.Node.t
(** A sealed [fts:AllMatches] element conforming to the paper's DTD, with
    full-precision scores. *)

val of_xml : Xmlkit.Node.t -> t
(** Inverse of {!to_xml}; also accepts AllMatches produced by the XQuery
    fts module.  @raise Invalid_argument on malformed input. *)
