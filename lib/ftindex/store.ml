(* Crash-safe persistent snapshots of the inverted index (see store.mli
   for the contract).

   On-disk layout of a snapshot directory:

     MANIFEST             framed manifest, written last (atomic switchover)
     doc-<gen>-NNNN.seg   one per document: uri, XML source, token stream

   Every file shares one frame: magic (8 bytes), format version (u32),
   kind byte, payload length (u64), payload, CRC-32 of the payload, all
   written with the shared byte codec ({!Codec}).  Generation
   numbers in segment file names let a new save coexist with the previous
   snapshot until the final manifest rename; stale generations are
   best-effort unlinked afterwards.

   The token streams are the one stored copy of the index: load rebuilds
   postings and corpus statistics from them with the indexer's own builder
   ({!Indexer.index_tokenized}), so a loaded index equals the saved one,
   and a damaged document segment re-indexed from its source text equals
   it too.

   Version 1 also wrote post-<gen>-NNNN.seg posting segments, references
   back into the token streams.  A version-1 manifest still loads: its
   posting-segment list is decoded only so {!snapshot_files} names every
   file a replica must copy. *)

let format_magic = "GTXIDX1\n"
let format_version = 2
let manifest_name = "MANIFEST"

open Codec

(* ------------------------------------------------------------------ *)
(* Deterministic I/O fault injection.                                  *)

module Io = struct
  type fault = Io_error | Crash | Torn_write of int | Bit_flip of int

  exception Crashed

  type t = { mutable op : int; mutable armed : (int * fault) option }

  let real () = { op = 0; armed = None }
  let with_fault ~at fault = { op = 0; armed = Some (at, fault) }
  let ops t = t.op

  let step t =
    t.op <- t.op + 1;
    match t.armed with
    | Some (at, f) when at = t.op ->
        t.armed <- None;
        Some f
    | _ -> None

  let fail () = raise (Sys_error "injected I/O failure (ENOSPC)")

  let flip_bit s off =
    if String.length s = 0 then s
    else begin
      let b = Bytes.of_string s in
      let i = off mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      Bytes.to_string b
    end

  (* Metadata operations (open, fsync, rename, ...): data faults are
     meaningless there and pass through. *)
  let guard t =
    match step t with
    | Some Io_error -> fail ()
    | Some Crash -> raise Crashed
    | Some (Torn_write _ | Bit_flip _) | None -> ()

  let write_all fd s =
    let n = String.length s in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write_substring fd s !off (n - !off)
    done

  (* One logical "write the whole buffer" data operation. *)
  let write_file t path data =
    guard t (* open/create *);
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (match step t with
        | Some Io_error ->
            (* ENOSPC partway through: a prefix may be durable *)
            write_all fd (String.sub data 0 (String.length data / 2));
            fail ()
        | Some Crash ->
            write_all fd (String.sub data 0 (String.length data / 2));
            raise Crashed
        | Some (Torn_write n) ->
            write_all fd (String.sub data 0 (min (max n 0) (String.length data)))
        | Some (Bit_flip off) -> write_all fd (flip_bit data off)
        | None -> write_all fd data);
        guard t (* fsync *);
        Unix.fsync fd)

  (* One logical "read the whole file" data operation.  Crash faults on
     the read side degrade to plain I/O errors: a reader cannot corrupt
     anything by dying, and [Crashed] must never escape a load. *)
  let read_file t path =
    (match step t with
    | Some (Io_error | Crash) -> fail ()
    | Some (Torn_write _ | Bit_flip _) | None -> ());
    let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        let buf = Bytes.create size in
        let off = ref 0 in
        (try
           while !off < size do
             let n = Unix.read fd buf !off (size - !off) in
             if n = 0 then raise Exit else off := !off + n
           done
         with Exit -> ());
        let data = Bytes.sub_string buf 0 !off in
        match step t with
        | Some Io_error -> fail ()
        | Some Crash -> fail () (* a read-only load cannot "crash-corrupt" *)
        | Some (Torn_write n) ->
            String.sub data 0 (min (max n 0) (String.length data))
        | Some (Bit_flip off) -> flip_bit data off
        | None -> data)

  (* One logical "append the whole buffer" data operation (WAL records).
     Same fault semantics as [write_file]: ENOSPC / crash leave a durable
     half-written prefix, a torn write silently persists [n] bytes. *)
  let append_file t path data =
    guard t (* open/create *);
    let fd =
      Unix.openfile path
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
        0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (match step t with
        | Some Io_error ->
            write_all fd (String.sub data 0 (String.length data / 2));
            fail ()
        | Some Crash ->
            write_all fd (String.sub data 0 (String.length data / 2));
            raise Crashed
        | Some (Torn_write n) ->
            write_all fd (String.sub data 0 (min (max n 0) (String.length data)))
        | Some (Bit_flip off) -> write_all fd (flip_bit data off)
        | None -> write_all fd data);
        guard t (* fsync *);
        Unix.fsync fd)

  let rename t src dst =
    guard t;
    Unix.rename src dst

  let truncate t path len =
    guard t;
    Unix.truncate path len

  let unlink t path =
    guard t;
    Unix.unlink path

  let mkdir t path =
    guard t;
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

  let readdir t path =
    guard t;
    Sys.readdir path

  let fsync_dir t path =
    guard t;
    match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
end

(* ------------------------------------------------------------------ *)
(* Framing: magic + version + kind + length-prefixed payload + CRC.    *)

let frame ~kind payload =
  let b = Buffer.create (String.length payload + 32) in
  Buffer.add_string b format_magic;
  put_u32 b format_version;
  put_u8 b (Char.code kind);
  put_u64 b (String.length payload);
  Buffer.add_string b payload;
  put_u32 b (crc32 payload);
  Buffer.contents b

type unframed =
  | Frame_ok of int * char * string  (** version, kind, payload *)
  | Frame_version of int  (** recognized snapshot file, unreadable version *)
  | Frame_corrupt of string

(* Every version up to this build's is readable: the frame and the
   document payload are the same in both. *)
let unframe data =
  try
    let r = reader data in
    if get_bytes r 8 <> format_magic then Frame_corrupt "bad magic"
    else
      let v = get_u32 r in
      if v < 1 || v > format_version then Frame_version v
      else begin
        let kind = Char.chr (get_u8 r) in
        let len = get_u64 r in
        need r (len + 4);
        let payload = get_bytes r len in
        let crc = get_u32 r in
        if not (at_end r) then Frame_corrupt "trailing bytes"
        else if crc <> crc32 payload then Frame_corrupt "checksum mismatch"
        else Frame_ok (v, kind, payload)
      end
  with Malformed msg -> Frame_corrupt msg

(* ------------------------------------------------------------------ *)
(* Payload encodings.                                                  *)

let put_token b (t : Tokenize.Token.t) =
  put_str b t.Tokenize.Token.word;
  put_str b t.Tokenize.Token.norm;
  put_str b (Xmlkit.Dewey.to_string t.Tokenize.Token.node);
  put_u32 b t.Tokenize.Token.abs_pos;
  put_u32 b t.Tokenize.Token.sentence;
  put_u32 b t.Tokenize.Token.para

let get_token r =
  let word = get_str r in
  let norm = get_str r in
  let node =
    let s = get_str r in
    try Xmlkit.Dewey.of_string s with Invalid_argument m -> malformed "%s" m
  in
  let abs_pos = get_u32 r in
  let sentence = get_u32 r in
  let para = get_u32 r in
  { Tokenize.Token.word; norm; node; abs_pos; sentence; para }

type mdoc = { m_uri : string; m_file : string; m_tokens : int }

type manifest = {
  gen : int;
  m_config : Tokenize.Segmenter.config;
  mdocs : mdoc list;
  m_epoch : int;
      (** primary-failover fencing epoch: bumped durably on every
          promotion, carried across generations by {!save} *)
  m_v1_postings : string list;
      (** a version-1 manifest's posting-segment files, never read *)
}

(* Version 2 writes the epoch last.  Version 1 put the posting-segment
   list (file, first and last word, entry and posting counts) and the
   corpus totals between the documents and an optional trailing epoch
   (pre-epoch manifests read as epoch 1).  [encode_manifest] always writes
   version 2. *)
let encode_manifest m =
  let b = Buffer.create 1024 in
  put_u32 b m.gen;
  put_list put_str b m.m_config.Tokenize.Segmenter.paragraph_elements;
  put_list put_str b m.m_config.Tokenize.Segmenter.ignore_elements;
  put_list
    (fun b d ->
      put_str b d.m_uri;
      put_str b d.m_file;
      put_u32 b d.m_tokens)
    b m.mdocs;
  put_u32 b m.m_epoch;
  Buffer.contents b

let decode_manifest ~version payload =
  let r = reader payload in
  let gen = get_u32 r in
  let paragraph_elements = get_list get_str r in
  let ignore_elements = get_list get_str r in
  let mdocs =
    get_list (fun r ->
        let m_uri = get_str r in
        let m_file = get_str r in
        let m_tokens = get_u32 r in
        { m_uri; m_file; m_tokens }) r
  in
  let m_v1_postings, m_epoch =
    if version >= 2 then ([], get_u32 r)
    else
      let files =
        get_list (fun r ->
            let file = get_str r in
            ignore (get_str r : string) (* first word *);
            ignore (get_str r : string) (* last word *);
            ignore (get_u32 r : int) (* entries *);
            ignore (get_u32 r : int) (* postings *);
            file) r
      in
      ignore (get_u64 r : int) (* total postings *);
      ignore (get_u32 r : int) (* distinct words *);
      (files, if at_end r then 1 else get_u32 r)
  in
  finish r "manifest";
  let uris = List.map (fun d -> d.m_uri) mdocs in
  if List.length (List.sort_uniq compare uris) <> List.length uris then
    malformed "duplicate document uri in manifest";
  { gen; m_config = { Tokenize.Segmenter.paragraph_elements; ignore_elements };
    mdocs; m_epoch; m_v1_postings }

let encode_doc ~uri ~source (tokens : Tokenize.Token.t array) =
  let b = Buffer.create (String.length source + 1024) in
  put_str b uri;
  put_str b source;
  put_u32 b (Array.length tokens);
  Array.iter (put_token b) tokens;
  Buffer.contents b

let decode_doc payload =
  let r = reader payload in
  let uri = get_str r in
  let source = get_str r in
  let tokens = Array.init (get_u32 r) (fun _ -> get_token r) in
  finish r "document";
  (uri, source, tokens)

(* ------------------------------------------------------------------ *)
(* Damage reporting.                                                   *)

type damage = { file : string; reason : string; uri : string }

type report = { damaged : damage list; reindexed : string list }

let clean r = r.damaged = []

let pp_report ppf r =
  if clean r then Format.fprintf ppf "snapshot loaded clean"
  else begin
    Format.fprintf ppf
      "salvaged snapshot: %d damaged segment(s), %d document(s) re-indexed"
      (List.length r.damaged)
      (List.length r.reindexed);
    List.iter
      (fun d -> Format.fprintf ppf "@\n  %s: %s (document %s)" d.file d.reason d.uri)
      r.damaged
  end

let report_to_string r = Format.asprintf "%a" pp_report r

(* ------------------------------------------------------------------ *)
(* Helpers shared by save and load.                                    *)

let storage_error code fmt = Xquery.Errors.raise_error code fmt

(* "post-" names version-1 posting segments: they count towards the next
   generation number and are unlinked as stale like any other segment. *)
let seg_prefixes = [ "doc-"; "post-" ]

(* "doc-7-0003.seg" -> Some 7 *)
let gen_of_filename name =
  if Filename.check_suffix name ".seg" then
    match String.split_on_char '-' name with
    | prefix :: gen :: _ when List.mem (prefix ^ "-") seg_prefixes ->
        int_of_string_opt gen
    | _ -> None
  else None

(* ------------------------------------------------------------------ *)
(* Save.                                                               *)

let atomic_write io ~dir name data =
  let tmp = Filename.concat dir (name ^ ".tmp") in
  Io.write_file io tmp data;
  Io.rename io tmp (Filename.concat dir name)

let next_generation io dir =
  let files = Io.readdir io dir in
  Array.fold_left
    (fun acc name ->
      match gen_of_filename name with Some g -> max acc (g + 1) | None -> acc)
    1 files

(* Plain-I/O, total read of the directory's current manifest — used by
   [save] to carry the fencing epoch across generations, by the serving
   layer's polls and by the epoch helpers further down.  Deliberately not
   routed through the caller's injector: it is a read-only peek, and
   keeping it off the fault-op counter keeps the save/compact sweeps
   deterministic. *)
let manifest_opt ~dir =
  match Io.read_file (Io.real ()) (Filename.concat dir manifest_name) with
  | exception _ -> None
  | data -> (
      match unframe data with
      | Frame_ok (version, 'M', payload) -> (
          match decode_manifest ~version payload with
          | m -> Some m
          | exception Malformed _ -> None)
      | Frame_ok _ | Frame_version _ | Frame_corrupt _ -> None)

let save ?(io = Io.real ()) ?(config = Tokenize.Segmenter.default_config)
    ?epoch ~dir index =
  (* the fencing epoch survives compaction: a new generation into an
     existing directory keeps the directory's epoch unless the caller
     stamps one explicitly; a fresh directory starts at epoch 1 *)
  let epoch =
    match epoch with
    | Some e -> e
    | None -> ( match manifest_opt ~dir with Some m -> m.m_epoch | None -> 1)
  in
  try
    Io.mkdir io dir;
    let gen = next_generation io dir in
    let mdocs =
      List.mapi
        (fun i (uri, root) ->
          let tokens = Inverted.tokens_of_doc index ~doc:uri in
          let file = Printf.sprintf "doc-%d-%04d.seg" gen i in
          let payload = encode_doc ~uri ~source:(Xmlkit.Printer.to_string root) tokens in
          atomic_write io ~dir file (frame ~kind:'D' payload);
          { m_uri = uri; m_file = file; m_tokens = Array.length tokens })
        (Inverted.documents index)
    in
    let manifest =
      { gen; m_config = config; mdocs; m_epoch = epoch; m_v1_postings = [] }
    in
    atomic_write io ~dir manifest_name (frame ~kind:'M' (encode_manifest manifest));
    Io.fsync_dir io dir;
    (* best-effort cleanup of stale generations and leftover temp files;
       the snapshot is already complete, so failures here are ignored *)
    (match Io.readdir io dir with
    | exception (Sys_error _ | Unix.Unix_error _) -> ()
    | files ->
        Array.iter
          (fun name ->
            let stale =
              Filename.check_suffix name ".tmp"
              || match gen_of_filename name with
                 | Some g -> g <> gen
                 | None -> false
            in
            if stale then
              try Io.unlink io (Filename.concat dir name)
              with Sys_error _ | Unix.Unix_error _ -> ())
          files)
  with
  | Sys_error msg ->
      storage_error Xquery.Errors.GTLX0008 "snapshot save to %s failed: %s" dir
        msg
  | Unix.Unix_error (e, fn, _) ->
      storage_error Xquery.Errors.GTLX0008 "snapshot save to %s failed: %s: %s"
        dir fn (Unix.error_message e)

(* ------------------------------------------------------------------ *)
(* Load.                                                               *)

type 'a segment_read = Seg_ok of 'a | Seg_damaged of string

(* Read and unframe one segment file; corruption becomes Seg_damaged, an
   unreadable version inside a segment too (salvage applies).  A document
   segment of either readable version serves a manifest of either: the
   document payload is the same in both, and an epoch bump rewrites a
   version-1 manifest as version 2 over its version-1 segments. *)
let read_segment io ~dir ~kind ~decode file =
  let path = Filename.concat dir file in
  match Io.read_file io path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Seg_damaged "missing file"
  | exception Sys_error msg -> Seg_damaged ("unreadable: " ^ msg)
  | exception Unix.Unix_error (e, _, _) ->
      Seg_damaged ("unreadable: " ^ Unix.error_message e)
  | data -> (
      match unframe data with
      | Frame_version v -> Seg_damaged (Printf.sprintf "format version %d" v)
      | Frame_corrupt reason -> Seg_damaged reason
      | Frame_ok (_, k, _) when k <> kind ->
          Seg_damaged (Printf.sprintf "wrong segment kind %C" k)
      | Frame_ok (_, _, payload) -> (
          match decode payload with
          | v -> Seg_ok v
          | exception Malformed reason -> Seg_damaged reason))

let read_manifest io ~dir =
  let path = Filename.concat dir manifest_name in
  match Io.read_file io path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      storage_error Xquery.Errors.GTLX0008
        "incomplete snapshot: no %s in %s (crash before the manifest rename, \
         or not a snapshot directory)"
        manifest_name dir
  | exception Sys_error msg ->
      storage_error Xquery.Errors.GTLX0008 "cannot read snapshot manifest: %s"
        msg
  | exception Unix.Unix_error (e, _, _) ->
      storage_error Xquery.Errors.GTLX0008 "cannot read snapshot manifest: %s"
        (Unix.error_message e)
  | data -> (
      match unframe data with
      | Frame_version v ->
          storage_error Xquery.Errors.GTLX0007
            "snapshot format version %d; this build reads versions 1 to %d" v
            format_version
      | Frame_corrupt reason ->
          storage_error Xquery.Errors.GTLX0006 "corrupt snapshot manifest: %s"
            reason
      | Frame_ok (_, k, _) when k <> 'M' ->
          storage_error Xquery.Errors.GTLX0006
            "corrupt snapshot manifest: wrong segment kind %C" k
      | Frame_ok (version, _, payload) -> (
          match decode_manifest ~version payload with
          | m -> m
          | exception Malformed reason ->
              storage_error Xquery.Errors.GTLX0006
                "corrupt snapshot manifest: %s" reason))

type loaded = {
  index : Inverted.t;
  config : Tokenize.Segmenter.config;
  report : report;
  generation : int;
  epoch : int;
}

(* The generation currently named by the directory's manifest, via plain
   I/O and total: the serving layer polls this between requests, and the
   load retry below uses it to distinguish real corruption from a race
   against a concurrent save. *)
let current_generation ~dir = Option.map (fun m -> m.gen) (manifest_opt ~dir)

(* The complete file listing of the current snapshot, manifest first:
   what a replica must copy to hold a bit-identical base. *)
let snapshot_files ~dir =
  Option.map
    (fun m ->
      ( m.gen,
        manifest_name :: (List.map (fun d -> d.m_file) m.mdocs @ m.m_v1_postings) ))
    (manifest_opt ~dir)

(* CRC-32 of the manifest *payload*.  Because every segment file's name
   and framing is fixed by its contents and the manifest names them all,
   two directories with equal manifest CRCs at the same generation hold
   the same snapshot bytes — the anti-entropy comparison is a single u32.

   Deliberately NOT a CRC of the raw file bytes: the frame ends in
   crc32(payload), and a CRC over a CRC-terminated message is
   self-cancelling — any two equal-length payloads with correctly
   stamped embedded CRCs hash to the same whole-file value (the CRC
   residue property), which would blind anti-entropy to every
   same-length divergence, an epoch bump being the canonical one. *)
let manifest_crc ~dir =
  match Io.read_file (Io.real ()) (Filename.concat dir manifest_name) with
  | exception _ -> None
  | data -> (
      match unframe data with
      | Frame_ok (_, _, payload) -> Some (crc32 payload)
      (* unreadable frame: hash the raw bytes so the comparison still
         disagrees with any healthy peer and forces the repair *)
      | Frame_version _ | Frame_corrupt _ -> Some (crc32 data))

let install_file ?(io = Io.real ()) ~dir ~name data =
  Io.mkdir io dir;
  atomic_write io ~dir name data

(* ------------------------------------------------------------------ *)
(* Fencing epoch.                                                      *)

let current_epoch ~dir = Option.map (fun m -> m.m_epoch) (manifest_opt ~dir)

(* Restamping writes the manifest in the current version: a version-1
   manifest loses its posting-segment list, and those files go as stale
   at the next save. *)
let bump_epoch ?(io = Io.real ()) ~dir ~epoch () =
  match manifest_opt ~dir with
  | None ->
      storage_error Xquery.Errors.GTLX0008
        "cannot bump epoch: no readable manifest in %s" dir
  | Some m ->
      if epoch < m.m_epoch then
        storage_error Xquery.Errors.GTLX0013
          "epoch regression refused: %s is at epoch %d, asked to stamp %d" dir
          m.m_epoch epoch
      else if epoch = m.m_epoch then ()
      else begin
        (* same temp → fsync → rename discipline as save: a crash at any
           point leaves the old epoch or the new one, never a torn
           manifest *)
        try
          atomic_write io ~dir manifest_name
            (frame ~kind:'M' (encode_manifest { m with m_epoch = epoch }));
          Io.fsync_dir io dir
        with
        | Sys_error msg ->
            storage_error Xquery.Errors.GTLX0008 "epoch bump in %s failed: %s"
              dir msg
        | Unix.Unix_error (e, fn, _) ->
            storage_error Xquery.Errors.GTLX0008
              "epoch bump in %s failed: %s: %s" dir fn (Unix.error_message e)
      end

(* Verify every document segment, re-index the damaged ones from
   [sources], then build the index from the token streams. *)
let load_manifest ~io ~governor ~sources ~dir m =
  let damaged = ref [] and reindexed = ref [] and fatal = ref [] in
  let docs =
    (* (uri, root, tokens) in manifest (= indexing) order *)
    List.filter_map
      (fun md ->
        Option.iter Xquery.Limits.io_tick governor;
        let salvage reason =
          damaged := { file = md.m_file; reason; uri = md.m_uri } :: !damaged;
          match List.assoc_opt md.m_uri sources with
          | Some source ->
              let root = Xmlkit.Parser.parse_document ~uri:md.m_uri source in
              reindexed := md.m_uri :: !reindexed;
              Some
                ( md.m_uri,
                  root,
                  Array.of_list
                    (Tokenize.Segmenter.tokenize_document ~config:m.m_config root)
                )
          | None ->
              fatal := (md.m_file, md.m_uri, reason) :: !fatal;
              None
        in
        match
          read_segment io ~dir ~kind:'D' ~decode:decode_doc md.m_file
        with
        | Seg_damaged reason -> salvage reason
        | Seg_ok (uri, source, tokens) ->
            if uri <> md.m_uri || Array.length tokens <> md.m_tokens then
              salvage "inconsistent with manifest"
            else begin
              match Xmlkit.Parser.parse_document ~uri source with
              | root -> Some (uri, root, tokens)
              | exception _ -> salvage "stored XML does not parse"
            end)
      m.mdocs
  in
  if !fatal <> [] then
    storage_error Xquery.Errors.GTLX0006
      "unsalvageable snapshot: %s (no re-index source provided; pass the \
       original document(s) to recover)"
      (String.concat "; "
         (List.rev_map
            (fun (file, uri, reason) ->
              Printf.sprintf "%s [%s]: %s" file uri reason)
            !fatal));
  {
    index = Indexer.index_tokenized docs;
    config = m.m_config;
    report = { damaged = List.rev !damaged; reindexed = List.rev !reindexed };
    generation = m.gen;
    epoch = m.m_epoch;
  }

(* Drive [load_manifest] with a bounded retry for the reader/writer race:
   a save replaces the manifest atomically but then unlinks the previous
   generation's segments, so a load that started on the old manifest can
   find its segments gone.  Damage (or an unsalvageable load) while the
   on-disk manifest has moved to a different generation is that race, not
   corruption — restart on the new manifest. *)
let load ?(io = Io.real ()) ?governor ?(sources = []) ~dir () =
  let max_attempts = 3 in
  let rec go attempt =
    Option.iter Xquery.Limits.io_tick governor;
    let m = read_manifest io ~dir in
    let moved_on () = current_generation ~dir <> Some m.gen in
    match load_manifest ~io ~governor ~sources ~dir m with
    | l when (not (clean l.report)) && attempt < max_attempts && moved_on () ->
        go (attempt + 1)
    | l -> l
    | exception Xquery.Errors.Error e
      when e.Xquery.Errors.code = Xquery.Errors.GTLX0006
           && attempt < max_attempts && moved_on () ->
        go (attempt + 1)
  in
  go 1
