(** Crash-safe persistent snapshots of the inverted index.

    The paper's architecture (Figure 4) builds TokenInfo streams and
    inverted lists from the documents off-line; this module makes the
    documents durable: a versioned snapshot directory holding a manifest
    plus one length-prefixed, CRC-32-checksummed segment per document
    (its uri and XML source).  {!load} re-tokenizes each source with the
    manifest's tokenizer configuration and builds postings and corpus
    statistics with {!Indexer.index_tokenized}; scores are computed at
    query time ({!Inverted.score}).

    {b Formats.}  This build writes format version 3 and reads versions 1
    to 3.  Version 2 also stored each document's token stream after its
    source, and version 1 wrote posting segments besides; load reads only
    each segment's uri and source, and {!snapshot_files} still lists
    version-1 posting segments so a replica copies the directory bit for
    bit.

    {b Crash safety.}  Every file is written to a temp name, fsynced and
    atomically renamed; the manifest — which names every segment of the
    snapshot generation — is written {e last}.  A crash at any point leaves
    either the previous complete snapshot (old manifest still in place) or
    the new one; never a half-visible mix.

    {b Corruption handling.}  {!load} verifies magic, version and payload
    checksum of every file, and each document against the manifest: its
    uri, token count and (from version 3) a CRC-32 of its normalized
    words, so a changed tokenizer is caught.  A document failing any
    check is re-indexed from a caller-provided source when available.
    Only when salvage is impossible does load raise, and then always a
    structured [Xquery.Errors.Error]: [GTLX0006] unsalvageable corrupt
    segment, [GTLX0007] format version mismatch, [GTLX0008] incomplete
    snapshot.  No raw exception, and never a silently divergent index.

    {b Fault injection.}  All I/O goes through {!Io}, a deterministic
    counter-driven single-shot injector mirroring the eval-step injector in
    [Xquery.Limits]: the [n]-th I/O operation can fail with ENOSPC, tear a
    write at byte [k], flip a bit in transit, or simulate process death.
    The sweep test drives every operation index through save and load. *)

(** Deterministic I/O fault injection. *)
module Io : sig
  type fault =
    | Io_error  (** the operation raises [Sys_error] (ENOSPC / EIO) *)
    | Crash
        (** torn write of a prefix, then simulated process death
            ({!Crashed} escapes the save) *)
    | Torn_write of int
        (** silently persist only the first [n] bytes (lying disk); on the
            read side, a short read of [n] bytes *)
    | Bit_flip of int
        (** flip one bit at byte offset [n mod length] in transit *)

  exception Crashed
  (** Simulated process death: deliberately {e not} a structured error —
      the harness treats it as the process disappearing mid-save. *)

  type t

  val real : unit -> t
  (** Plain I/O, no faults. *)

  val with_fault : at:int -> fault -> t
  (** Arm [fault] to fire exactly once, at the [at]-th I/O operation
      (1-based). *)

  val ops : t -> int
  (** Operations performed so far (use a clean run to size a sweep). *)

  (** {2 Raw operations}

      Exposed so sibling persistence modules (the write-ahead log) share
      the same injector — one op counter spans a whole save / load /
      append / compact scenario, so a sweep over operation indices covers
      the combined path.  [write_file] / [append_file] / [read_file] are
      data operations (a fault can tear or flip the payload); the rest are
      metadata operations (a fault is an error or a simulated crash). *)

  val write_file : t -> string -> string -> unit
  (** Truncate-and-write the whole buffer, then fsync. *)

  val append_file : t -> string -> string -> unit
  (** Append the whole buffer (creating the file if needed), then fsync. *)

  val read_file : t -> string -> string
  val rename : t -> string -> string -> unit
  val unlink : t -> string -> unit
  val mkdir : t -> string -> unit
  val readdir : t -> string -> string array
  val fsync_dir : t -> string -> unit
  val truncate : t -> string -> int -> unit
end

(** {1 Damage reporting} *)

type damage = {
  file : string;  (** segment file name within the snapshot directory *)
  reason : string;
      (** e.g. ["checksum mismatch"], ["truncated"], or
          ["tokenizer changed since the save: ..."] *)
  uri : string;  (** the document the segment holds *)
}

type report = {
  damaged : damage list;  (** empty for a clean load *)
  reindexed : string list;
      (** uris of documents rebuilt from caller-provided sources *)
}

val clean : report -> bool
val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string

(** {1 Save / load} *)

val save :
  ?io:Io.t ->
  ?config:Tokenize.Segmenter.config ->
  ?epoch:int ->
  dir:string ->
  Inverted.t ->
  unit
(** Write a snapshot of the index into [dir] (created if missing):
    one document segment per document, then the manifest.  Crash-safe:
    any previous snapshot is replaced only at the final manifest rename.
    [config] is the tokenizer configuration the index was built with —
    recorded so salvage re-indexes sources identically.  [epoch] stamps the
    manifest with a fencing epoch; by default the directory's current
    epoch carries over (a fresh directory starts at epoch 1), so
    compaction never moves the epoch.

    @raise Xquery.Errors.Error with [GTLX0008] when I/O fails mid-save.
    @raise Io.Crashed under injected crash faults. *)

type loaded = {
  index : Inverted.t;
  config : Tokenize.Segmenter.config;
      (** the tokenizer configuration recorded at save time (salvage
          re-indexes with it; engines retain it for subsequent saves) *)
  report : report;
  generation : int;
      (** the snapshot generation the manifest named — a fresh directory
          starts at 1 and every {!save} into it increments; serving layers
          use this to detect that the directory moved on *)
  epoch : int;
      (** the fencing epoch the manifest named — monotone across
          promotions, constant across compactions; pre-epoch manifests
          read as epoch 1 *)
}

val load :
  ?io:Io.t ->
  ?governor:Xquery.Limits.governor ->
  ?sources:(string * string) list ->
  dir:string ->
  unit ->
  loaded
(** Read a snapshot back, verifying every checksum, and build the index
    from the stored sources ({!Indexer.index_tokenized}); every format
    version takes this one path.  [sources] maps document uris to XML
    source text, used instead of a document's segment when that fails a
    check.  [governor] accounts one step per segment read and applies the
    wall-clock deadline to loading.

    The result index is {e exact}: equal to the saved one, or — after
    salvage — equal to re-indexing the same sources, with the report
    describing every damaged segment and re-indexed document.

    @raise Xquery.Errors.Error with [GTLX0006] (unsalvageable corruption),
    [GTLX0007] (version mismatch), [GTLX0008] (missing / incomplete
    snapshot), or a resource code from the governor.  Nothing else.

    {b Concurrent overwrites.}  A load racing a {!save} into the same
    directory can observe the old manifest while the save unlinks the old
    generation's segments behind it.  When a load comes back damaged (or
    unsalvageable) {e and} the directory's manifest has moved to another
    generation, the load restarts on the new manifest (bounded retries),
    so a reader concurrent with a writer yields the old or the new index
    intact — never a torn mix. *)

val current_generation : dir:string -> int option
(** The generation named by the manifest currently in [dir], or [None]
    when there is no readable manifest.  Plain I/O, never raises — the
    serving layer polls this to detect new snapshots. *)

(** {1 Replication support}

    A replica holds a bit-identical copy of its primary's snapshot: it
    never runs {!save} itself but installs the primary's files byte for
    byte, so manifest-CRC equality at a matched generation proves the two
    directories identical. *)

val snapshot_files : dir:string -> (int * string list) option
(** The generation and complete file listing (manifest first) of the
    snapshot currently in [dir], or [None] when there is no readable
    manifest.  Plain I/O, never raises. *)

val manifest_crc : dir:string -> int option
(** CRC-32 of the manifest payload in [dir] — the anti-entropy
    fingerprint: equal CRCs at equal generations imply bit-identical
    snapshots.  Computed over the payload rather than the raw file
    because a CRC of a CRC-terminated frame is self-cancelling (the
    residue property): it would not change under same-length payload
    edits such as an epoch bump.  Plain I/O, never raises. *)

(** {1 Fencing epoch (primary failover)}

    Every manifest carries a monotonically increasing {e epoch}: the
    fencing token of the replication layer.  A follower promotion bumps
    it durably; every write-path request is stamped with it; a node
    rejects requests from a superseded epoch with [GTLX0013], which makes
    split-brain structurally impossible — two primaries can coexist only
    at different epochs, and only the higher one can get writes
    acknowledged. *)

val current_epoch : dir:string -> int option
(** The fencing epoch named by the manifest currently in [dir], or [None]
    when there is no readable manifest.  Plain I/O, never raises. *)

val bump_epoch : ?io:Io.t -> dir:string -> epoch:int -> unit -> unit
(** Durably restamp the current manifest with [epoch] (temp + fsync +
    rename + directory fsync, the same discipline as {!save}).  A no-op
    when [epoch] equals the current epoch.  The manifest is rewritten in
    the current format version: a version-1 manifest stops listing its
    posting segments, which the next {!save} removes, and its documents
    stay without a word CRC.

    @raise Xquery.Errors.Error with [GTLX0013] when [epoch] is {e lower}
    than the directory's current epoch (epoch regression — the caller is
    on a superseded timeline), or [GTLX0008] when there is no readable
    manifest or I/O fails.
    @raise Io.Crashed under injected crash faults. *)

val install_file : ?io:Io.t -> dir:string -> name:string -> string -> unit
(** Atomically install one verbatim snapshot file (temp + fsync + rename),
    creating [dir] if needed — the replica-side half of a snapshot
    transfer.  Install the manifest last, exactly as {!save} does.
    @raise Sys_error / [Unix.Unix_error] on I/O failure. *)

(** {1 Format constants (exposed for tests)} *)

val format_magic : string
val format_version : int
(** The version {!save} writes; {!load} reads every version from 1 up. *)

val manifest_name : string
