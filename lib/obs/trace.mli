(** Low-overhead span recorder for one evaluation.

    A recorder is single-threaded (one per query run); spans nest through
    an explicit stack, so the recorded tree is well-nested by construction:
    a child's [start, finish] interval always lies inside its parent's when
    the clock is monotonic (both {!Clock.real} and {!Clock.manual} are). *)

type span = {
  name : string;  (** phase name: ["query"], ["parse"], ["eval"], ... *)
  start : float;  (** clock value on entry *)
  mutable finish : float;  (** clock value on exit; [nan] while open *)
  mutable children : span list;  (** in execution order once closed *)
}

type t

val make : ?clock:Clock.t -> unit -> t
(** Fresh recorder (default clock: {!Clock.real}). *)

val enter : t -> string -> unit
val exit : t -> unit
(** Close the innermost open span, attaching it to its parent (or to the
    root list).  @raise Invalid_argument when no span is open. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [enter], run, [exit] — exception-safe, so a span is closed even when
    the traced phase raises. *)

val roots : t -> span list
(** Closed top-level spans, oldest first. *)

val root : t -> span option
(** The most recently closed top-level span. *)

val duration : span -> float

val render : span -> string
(** Human-readable indented tree, one [name duration] line per span. *)

val to_json : span -> string
(** The span tree as a JSON object
    [{"name": .., "start": .., "duration": .., "children": [..]}]. *)
