(* Crash-safe persistent snapshots of the inverted index (see store.mli
   for the contract).

   On-disk layout of a snapshot directory:

     MANIFEST             framed manifest, written last (atomic switchover)
     doc-<gen>-NNNN.seg   one per document: uri, XML source, token stream
     post-<gen>-NNNN.seg  posting segments over the sorted distinct-word
                          list; a word's postings may span several segments

   Every file shares one frame: magic (8 bytes), format version (u32),
   kind byte, payload length (u64), payload, CRC-32 of the payload, all
   written with the shared byte codec ({!Codec}).  Generation
   numbers in segment file names let a new save coexist with the previous
   snapshot until the final manifest rename; stale generations are
   best-effort unlinked afterwards.

   The recovery invariant load maintains: postings are fully derivable
   from the per-document token streams plus corpus statistics (which are
   themselves derivable from the token streams), and that derivation is
   bit-identical to what Indexer.index_documents produced.  So any damaged
   posting range can be rebuilt exactly as long as the document segments
   are intact, and a damaged document segment can be re-indexed exactly
   from its original source text. *)

let format_magic = "GTXIDX1\n"
let format_version = 1
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
  | Frame_ok of char * string  (** kind, payload *)
  | Frame_version of int  (** recognized snapshot file, other version *)
  | Frame_corrupt of string

let unframe data =
  try
    let r = reader data in
    if get_bytes r 8 <> format_magic then Frame_corrupt "bad magic"
    else
      let v = get_u32 r in
      if v <> format_version then Frame_version v
      else begin
        let kind = Char.chr (get_u8 r) in
        let len = get_u64 r in
        need r (len + 4);
        let payload = get_bytes r len in
        let crc = get_u32 r in
        if not (at_end r) then Frame_corrupt "trailing bytes"
        else if crc <> crc32 payload then Frame_corrupt "checksum mismatch"
        else Frame_ok (kind, payload)
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

type mseg = {
  p_file : string;
  p_first : string;
  p_last : string;
  p_entries : int;
  p_postings : int;
}

type manifest = {
  gen : int;
  m_config : Tokenize.Segmenter.config;
  mdocs : mdoc list;
  msegs : mseg list;
  m_total : int;  (** total postings (= total tokens) across the corpus *)
  m_words : int;  (** distinct-word count *)
  m_epoch : int;
      (** primary-failover fencing epoch: bumped durably on every
          promotion, carried across generations by {!save}; encoded as an
          optional trailing field so pre-epoch manifests decode as epoch
          1 *)
}

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
  put_list
    (fun b s ->
      put_str b s.p_file;
      put_str b s.p_first;
      put_str b s.p_last;
      put_u32 b s.p_entries;
      put_u32 b s.p_postings)
    b m.msegs;
  put_u64 b m.m_total;
  put_u32 b m.m_words;
  put_u32 b m.m_epoch;
  Buffer.contents b

let decode_manifest payload =
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
  let msegs =
    get_list (fun r ->
        let p_file = get_str r in
        let p_first = get_str r in
        let p_last = get_str r in
        let p_entries = get_u32 r in
        let p_postings = get_u32 r in
        { p_file; p_first; p_last; p_entries; p_postings }) r
  in
  let m_total = get_u64 r in
  let m_words = get_u32 r in
  (* optional trailing epoch: pre-epoch manifests end at m_words *)
  let m_epoch = if at_end r then 1 else get_u32 r in
  finish r "manifest";
  let uris = List.map (fun d -> d.m_uri) mdocs in
  if List.length (List.sort_uniq compare uris) <> List.length uris then
    malformed "duplicate document uri in manifest";
  { gen; m_config = { Tokenize.Segmenter.paragraph_elements; ignore_elements };
    mdocs; msegs; m_total; m_words; m_epoch }

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

(* A posting within a segment references its token as (document index in
   manifest order, token index in that document's stream) plus the score
   at save time, which loading skips — compact, and exactly reconstructible. *)
let encode_postings entries =
  let b = Buffer.create 4096 in
  put_list
    (fun b (word, chunk) ->
      put_str b word;
      put_u32 b (List.length chunk);
      List.iter
        (fun (doc_idx, tok_idx, score) ->
          put_u32 b doc_idx;
          put_u32 b tok_idx;
          put_bits64 b (Int64.bits_of_float score))
        chunk)
    b entries;
  Buffer.contents b

let decode_postings payload =
  let r = reader payload in
  let entries =
    get_list (fun r ->
        let word = get_str r in
        let chunk =
          get_list (fun r ->
              let doc_idx = get_u32 r in
              let tok_idx = get_u32 r in
              ignore (get_bits64 r : int64);
              (doc_idx, tok_idx))
            r
        in
        (word, chunk)) r
  in
  finish r "posting";
  entries

(* ------------------------------------------------------------------ *)
(* Damage reporting.                                                   *)

type scope = Document of string | Word_range of string * string

type damage = { file : string; reason : string; scope : scope }

type report = {
  damaged : damage list;
  reindexed : string list;
  rebuilt_words : int;
}

let clean r = r.damaged = []

let pp_report ppf r =
  if clean r then Format.fprintf ppf "snapshot loaded clean"
  else begin
    Format.fprintf ppf
      "salvaged snapshot: %d damaged segment(s), %d document(s) re-indexed, %d word(s) rebuilt"
      (List.length r.damaged)
      (List.length r.reindexed)
      r.rebuilt_words;
    List.iter
      (fun d ->
        Format.fprintf ppf "@\n  %s: %s%s" d.file d.reason
          (match d.scope with
          | Document uri -> Printf.sprintf " (document %s)" uri
          | Word_range (a, z) -> Printf.sprintf " (words %S..%S)" a z))
      r.damaged
  end

let report_to_string r = Format.asprintf "%a" pp_report r

(* ------------------------------------------------------------------ *)
(* Helpers shared by save and load.                                    *)

let storage_error code fmt = Xquery.Errors.raise_error code fmt

let seg_prefixes = [ "doc-"; "post-" ]

(* "doc-7-0003.seg" -> Some 7 *)
let gen_of_filename name =
  if Filename.check_suffix name ".seg" then
    match String.split_on_char '-' name with
    | prefix :: gen :: _ when List.mem (prefix ^ "-") seg_prefixes ->
        int_of_string_opt gen
    | _ -> None
  else None

(* Index of a posting's token inside its document's token stream: streams
   are in strictly increasing absolute-position order, so binary search. *)
let token_index tokens (p : Posting.t) =
  let target = Posting.abs_pos p in
  let lo = ref 0 and hi = ref (Array.length tokens - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let pos = tokens.(mid).Tokenize.Token.abs_pos in
    if pos = target then begin
      found := mid;
      lo := !hi + 1
    end
    else if pos < target then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then
    invalid_arg
      (Printf.sprintf "Store.save: posting at position %d not in token stream"
         target);
  !found

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
   [save] to carry the fencing epoch across generations and by the epoch
   helpers further down.  Deliberately not routed through the caller's
   injector: it is a read-only peek, and keeping it off the fault-op
   counter keeps the save/compact sweeps deterministic. *)
let manifest_opt ~dir =
  match Io.read_file (Io.real ()) (Filename.concat dir manifest_name) with
  | exception _ -> None
  | data -> (
      match unframe data with
      | Frame_ok ('M', payload) -> (
          match decode_manifest payload with
          | m -> Some m
          | exception Malformed _ -> None)
      | Frame_ok _ | Frame_version _ | Frame_corrupt _ -> None)

let save ?(io = Io.real ()) ?(config = Tokenize.Segmenter.default_config)
    ?(segment_postings = 4096) ?epoch ~dir index =
  let segment_postings = max 1 segment_postings in
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
    let docs = Inverted.documents index in
    (* document segments *)
    let mdocs =
      List.mapi
        (fun i (uri, root) ->
          let tokens = Inverted.tokens_of_doc index ~doc:uri in
          let file = Printf.sprintf "doc-%d-%04d.seg" gen i in
          let payload = encode_doc ~uri ~source:(Xmlkit.Printer.to_string root) tokens in
          atomic_write io ~dir file (frame ~kind:'D' payload);
          { m_uri = uri; m_file = file; m_tokens = Array.length tokens })
        docs
    in
    let doc_index = Hashtbl.create 16 in
    List.iteri (fun i (uri, _) -> Hashtbl.replace doc_index uri i) docs;
    let doc_tokens =
      Array.of_list
        (List.map (fun (uri, _) -> Inverted.tokens_of_doc index ~doc:uri) docs)
    in
    (* posting segments: pack (word, chunk) entries up to the cap; a long
       posting list spills into the following segment(s) *)
    let msegs = ref [] in
    let seg_no = ref 0 in
    let cur = ref [] (* rev (word, rev chunk) *) in
    let cur_count = ref 0 in
    let flush () =
      if !cur <> [] then begin
        let entries = List.rev_map (fun (w, c) -> (w, List.rev c)) !cur in
        let file = Printf.sprintf "post-%d-%04d.seg" gen !seg_no in
        incr seg_no;
        atomic_write io ~dir file (frame ~kind:'P' (encode_postings entries));
        msegs :=
          {
            p_file = file;
            p_first = fst (List.hd entries);
            p_last = fst (List.hd !cur);
            p_entries = List.length entries;
            p_postings = !cur_count;
          }
          :: !msegs;
        cur := [];
        cur_count := 0
      end
    in
    List.iter
      (fun word ->
        let refs =
          Inverted.Doc_map.fold
            (fun doc run acc ->
              let di = Hashtbl.find doc_index doc in
              let score = Inverted.score index ~doc run in
              Array.fold_left
                (fun acc p -> (di, token_index doc_tokens.(di) p, score) :: acc)
                acc run)
            (Inverted.runs index word) []
          |> List.rev
        in
        let rec place = function
          | [] -> ()
          | refs ->
              if !cur_count >= segment_postings then flush ();
              let room = segment_postings - !cur_count in
              let rec take n acc rest =
                match (n, rest) with
                | 0, _ | _, [] -> (List.rev acc, rest)
                | n, x :: tl -> take (n - 1) (x :: acc) tl
              in
              let chunk, rest = take room [] refs in
              cur := (word, List.rev chunk) :: !cur;
              cur_count := !cur_count + List.length chunk;
              place rest
        in
        place refs)
      (Inverted.distinct_words index);
    flush ();
    let manifest =
      {
        gen;
        m_config = config;
        mdocs;
        msegs = List.rev !msegs;
        m_total = Inverted.total_postings index;
        m_words = Inverted.distinct_word_count index;
        m_epoch = epoch;
      }
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

(* Read and unframe one segment file; corruption becomes Seg_damaged, a
   version mismatch inside a segment too (the manifest's version is the
   snapshot's — a stray other-version segment is damage, and salvage
   applies). *)
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
      | Frame_ok (k, _) when k <> kind ->
          Seg_damaged (Printf.sprintf "wrong segment kind %C" k)
      | Frame_ok (_, payload) -> (
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
            "snapshot format version %d; this build reads version %d" v
            format_version
      | Frame_corrupt reason ->
          storage_error Xquery.Errors.GTLX0006 "corrupt snapshot manifest: %s"
            reason
      | Frame_ok (k, _) when k <> 'M' ->
          storage_error Xquery.Errors.GTLX0006
            "corrupt snapshot manifest: wrong segment kind %C" k
      | Frame_ok (_, payload) -> (
          match decode_manifest payload with
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
let current_generation ~dir =
  match Io.read_file (Io.real ()) (Filename.concat dir manifest_name) with
  | exception _ -> None
  | data -> (
      match unframe data with
      | Frame_ok ('M', payload) -> (
          match decode_manifest payload with
          | m -> Some m.gen
          | exception Malformed _ -> None)
      | Frame_ok _ | Frame_version _ | Frame_corrupt _ -> None)

(* The complete file listing of the current snapshot, manifest first:
   what a replica must copy to hold a bit-identical base.  Same
   total plain-I/O discipline as current_generation. *)
let snapshot_files ~dir =
  match Io.read_file (Io.real ()) (Filename.concat dir manifest_name) with
  | exception _ -> None
  | data -> (
      match unframe data with
      | Frame_ok ('M', payload) -> (
          match decode_manifest payload with
          | m ->
              let files =
                manifest_name
                :: (List.map (fun d -> d.m_file) m.mdocs
                   @ List.map (fun s -> s.p_file) m.msegs)
              in
              Some (m.gen, files)
          | exception Malformed _ -> None)
      | Frame_ok _ | Frame_version _ | Frame_corrupt _ -> None)

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
      | Frame_ok (_, payload) -> Some (crc32 payload)
      (* unreadable frame: hash the raw bytes so the comparison still
         disagrees with any healthy peer and forces the repair *)
      | Frame_version _ | Frame_corrupt _ -> Some (crc32 data))

let install_file ?(io = Io.real ()) ~dir ~name data =
  Io.mkdir io dir;
  atomic_write io ~dir name data

(* ------------------------------------------------------------------ *)
(* Fencing epoch.                                                      *)

let current_epoch ~dir = Option.map (fun m -> m.m_epoch) (manifest_opt ~dir)

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

(* Rebuild one word's postings from the (intact) token streams — exactly
   the Indexer's computation: documents in indexing order, positions in
   stream order. *)
let rebuild_word docs_tokens word =
  List.concat_map
    (fun (uri, tokens) ->
      Array.to_list tokens
      |> List.filter_map (fun (t : Tokenize.Token.t) ->
             if t.Tokenize.Token.norm = word then Some (Posting.make ~doc:uri t)
             else None))
    docs_tokens

let load_manifest ~io ~governor ~sources ~dir m =
  let tick () = Option.iter Xquery.Limits.io_tick governor in
  let damaged = ref [] in
  let add_damage file reason scope =
    damaged := { file; reason; scope } :: !damaged
  in
  (* -- document segments ------------------------------------------- *)
  let reindexed = ref [] in
  let fatal = ref [] in
  let docs =
    (* (uri, root, tokens) in manifest (= indexing) order *)
    List.filter_map
      (fun md ->
        tick ();
        let salvage reason =
          add_damage md.m_file reason (Document md.m_uri);
          match List.assoc_opt md.m_uri sources with
          | Some source ->
              let root = Xmlkit.Parser.parse_document ~uri:md.m_uri source in
              let tokens =
                Array.of_list
                  (Tokenize.Segmenter.tokenize_document ~config:m.m_config root)
              in
              reindexed := md.m_uri :: !reindexed;
              Some (md.m_uri, root, tokens)
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
  let reindexed = List.rev !reindexed in
  (* -- corpus statistics, rebuilt from the token streams ------------ *)
  let stats =
    List.fold_left
      (fun acc (uri, _, tokens) ->
        Stats.add_document acc ~doc:uri (Array.to_list tokens))
      (Stats.create ()) docs
  in
  let docs_tokens = List.map (fun (uri, _, tokens) -> (uri, tokens)) docs in
  let doc_arr = Array.of_list docs_tokens in
  let total_tokens =
    List.fold_left (fun acc (_, t) -> acc + Array.length t) 0 docs_tokens
  in
  (* -- posting segments --------------------------------------------- *)
  let damaged_ranges = ref [] in
  let chunks = Hashtbl.create 256 (* word -> rev (doc_idx,tok_idx) list list *) in
  let chunk_order = ref [] (* rev word order of first appearance *) in
  List.iter
    (fun ms ->
      tick ();
      match
        read_segment io ~dir ~kind:'P' ~decode:decode_postings ms.p_file
      with
      | Seg_damaged reason ->
          add_damage ms.p_file reason (Word_range (ms.p_first, ms.p_last));
          damaged_ranges := (ms.p_first, ms.p_last) :: !damaged_ranges
      | Seg_ok entries ->
          List.iter
            (fun (word, chunk) ->
              match Hashtbl.find_opt chunks word with
              | Some prev -> Hashtbl.replace chunks word (chunk :: prev)
              | None ->
                  Hashtbl.replace chunks word [ chunk ];
                  chunk_order := word :: !chunk_order)
            entries)
    m.msegs;
  let in_damaged_range w =
    List.exists (fun (a, z) -> a <= w && w <= z) !damaged_ranges
  in
  (* distinct words of the corpus, derivable from token streams alone *)
  let corpus_words () =
    let set = Hashtbl.create 256 in
    List.iter
      (fun (_, tokens) ->
        Array.iter
          (fun (t : Tokenize.Token.t) ->
            Hashtbl.replace set t.Tokenize.Token.norm ())
          tokens)
      docs_tokens;
    set
  in
  let postings = Hashtbl.create 256 in
  let rebuilt_words = ref 0 in
  let rebuild w =
    incr rebuilt_words;
    Hashtbl.replace postings w (rebuild_word docs_tokens w)
  in
  let full_rebuild () =
    Hashtbl.reset postings;
    rebuilt_words := 0;
    Hashtbl.iter (fun w () -> rebuild w) (corpus_words ())
  in
  if reindexed <> [] then
    (* a re-indexed document invalidates every (doc_idx, token_idx)
       reference into it; token streams are now authoritative *)
    full_rebuild ()
  else begin
    let inconsistent = ref false in
    List.iter
      (fun w ->
        tick ();
        if in_damaged_range w then rebuild w
        else begin
          let entry_of (doc_idx, tok_idx) =
            if doc_idx < 0 || doc_idx >= Array.length doc_arr then
              malformed "document index out of range";
            let uri, tokens = doc_arr.(doc_idx) in
            if tok_idx < 0 || tok_idx >= Array.length tokens then
              malformed "token index out of range";
            let tok = tokens.(tok_idx) in
            if tok.Tokenize.Token.norm <> w then
              malformed "posting references a token of a different word";
            Posting.make ~doc:uri tok
          in
          match
            List.concat_map (List.map entry_of)
              (List.rev (Hashtbl.find chunks w))
          with
          | ps -> Hashtbl.replace postings w ps
          | exception (Malformed _ | Invalid_argument _) ->
              (* checksummed data should never get here; treat it as
                 damage and fall back to the token streams *)
              inconsistent := true
        end)
      (List.rev !chunk_order);
    (* words living entirely inside damaged segments never appeared in
       any intact chunk: recover them from the token streams *)
    if !damaged_ranges <> [] then
      Hashtbl.iter
        (fun w () ->
          if (not (Hashtbl.mem postings w)) && in_damaged_range w then
            rebuild w)
        (corpus_words ());
    (* defense in depth: the reassembled index must agree with the
       manifest's totals; if not, the snapshot lies somewhere the CRCs
       did not cover — rebuild everything from the token streams *)
    let total = Hashtbl.fold (fun _ ps acc -> acc + List.length ps) postings 0 in
    if
      !inconsistent
      || total <> m.m_total
      || Hashtbl.length postings <> m.m_words
      || total <> total_tokens
    then begin
      add_damage manifest_name
        "postings disagree with manifest totals; rebuilt from token streams"
        (Word_range ("", "\xff"));
      full_rebuild ()
    end
  end;
  let doc_tokens_tbl = Hashtbl.create 16 in
  List.iter (fun (uri, tokens) -> Hashtbl.replace doc_tokens_tbl uri tokens) docs_tokens;
  (* snapshots list a word's postings in any document order (older ones in
     indexing order): regroup them into the index's per-document runs *)
  let runs = Hashtbl.create (Hashtbl.length postings) in
  Hashtbl.iter
    (fun w ps -> Hashtbl.replace runs w (Inverted.runs_of_postings ps))
    postings;
  let index =
    Inverted.make
      ~documents:(List.map (fun (uri, root, _) -> (uri, root)) docs)
      ~postings:runs ~doc_tokens:doc_tokens_tbl ~stats
      ~total_postings:total_tokens
  in
  {
    index;
    config = m.m_config;
    report =
      { damaged = List.rev !damaged; reindexed; rebuilt_words = !rebuilt_words };
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
