(** Deadline-aware framed network I/O.

    Every other layer of the serving stack (protocol codec, client,
    daemon, router, replication) moves bytes through this module.  The
    contract is the one blocking [Unix.read]/[Unix.write] cannot give:
    an operation either completes, fails with a transport error, or
    raises the structured resource code [gtlx:GTLX0014] when its
    absolute deadline passes or the peer stops making progress — it
    {e never} hangs.

    Two bounds compose per operation:

    - {b deadline} — an absolute [Unix.gettimeofday]-clock instant by
      which the whole operation (all bytes of the frame) must finish.
      Derived from the request's [deadline_left] budget on the query
      path, or from [--io-timeout] on connection handling.
    - {b idle} — a relative progress bound: if no byte moves for this
      many seconds the peer is considered stalled.  This is the
      byte-rate floor that defeats slow-loris peers dribbling one byte
      per interval (which resets any per-syscall [SO_RCVTIMEO]), and
      doubles as the handshake timeout (time to first byte).

    Frames are the wire protocol's: a little-endian u32 length prefix
    followed by the payload, capped at [max_frame].  Malformed input
    (torn frame, oversized header) stays an [Error _] result exactly
    like the pre-netio decoder; only time-domain failures raise. *)

type limits = {
  deadline : float option;
      (** absolute instant ([Unix.gettimeofday] clock) for the whole
          operation; [None] = no overall bound *)
  idle : float option;
      (** max seconds with zero bytes of progress; [None] = no bound *)
}

val no_limits : limits
(** Neither bound: blocking semantics (still select-gated, never
    busy-waits). *)

val within : ?idle:float -> float -> limits
(** [within ?idle seconds] is a limits whose deadline is [seconds] from
    now.  Non-positive [seconds] yields an already-expired deadline. *)

val limits_of_deadline : ?idle:float -> float option -> limits
(** Wrap an optional absolute deadline (e.g. a request budget). *)

val remaining : limits -> float option
(** Seconds until the deadline, if one is set (may be negative). *)

val expired : limits -> bool

val max_frame : int
(** Refuse frames larger than this (16 MiB): a corrupt or hostile length
    prefix must not trigger a giant allocation. *)

exception Timeout of string
(** Internal signal; public entry points translate it to
    [Xquery.Errors.Error] with code [GTLX0014].  Exposed so wrappers can
    match it if they interpose. *)

val connect : ?limits:limits -> string -> Unix.file_descr
(** Connect to a Unix-domain socket under the limits.  Raises
    [GTLX0014] on deadline expiry, [Unix.Unix_error] on refusal. *)

type frame_reader
(** One frame read in progress.  A read never takes bytes past the
    frame's end. *)

val frame_reader : unit -> frame_reader
(** A fresh read; the idle bound counts from now. *)

val read_frame :
  ?limits:limits ->
  ?reader:frame_reader ->
  Unix.file_descr ->
  (string, string) result
(** Read one length-prefixed frame, continuing [reader] (default: a fresh
    one).  [Error _] on EOF mid-frame ("torn frame"), oversized length,
    or closed peer; raises [GTLX0014] if the limits expire first. *)

val read_frame_step :
  ?limits:limits ->
  frame_reader ->
  Unix.file_descr ->
  (string, string) result option
(** Take whatever the socket holds toward the frame without waiting: the
    non-blocking half of {!read_frame}, for callers that multiplex many
    sockets over one [select].  [fd] must be non-blocking (as
    {!connect} leaves it).  [None] = the frame is incomplete and the
    limits still hold; [Some] as {!read_frame}; raises [GTLX0014] when
    nothing more can be read and the limits have passed. *)

val write_frame : ?limits:limits -> Unix.file_descr -> string -> unit
(** Write one length-prefixed frame.  Raises [GTLX0014] if the limits
    expire before the last byte is accepted by the kernel;
    [Unix.Unix_error] (EPIPE, ECONNRESET) if the peer is gone. *)

val read_exact : ?limits:limits -> Unix.file_descr -> int -> (string, string) result
(** Read exactly [n] raw bytes (no length prefix) under the limits. *)

val write_all : ?limits:limits -> Unix.file_descr -> string -> unit
(** Write all raw bytes (no length prefix) under the limits. *)
