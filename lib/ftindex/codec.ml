(* The one byte codec (see codec.mli): little-endian fixed-width ints on
   the stdlib's Buffer/String accessors, u32-length-prefixed strings, a
   bounds-checked reader, and CRC-32. *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* ------------------------------------------------------------------ *)
(* Writing.                                                            *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xFF)
let put_u32 b v = Buffer.add_int32_le b (Int32.of_int v)

(* the low 63 bits: the top byte of a non-negative int is at most 0x7F,
   which is what [get_u64] accepts back *)
let put_u64 b v =
  Buffer.add_int64_le b (Int64.logand (Int64.of_int v) Int64.max_int)

let put_bits64 b (x : int64) = Buffer.add_int64_le b x

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_bool b v = put_u8 b (if v then 1 else 0)

let put_opt put b = function
  | None -> put_u8 b 0
  | Some v ->
      put_u8 b 1;
      put b v

let put_list put b l =
  put_u32 b (List.length l);
  List.iter (put b) l

(* ------------------------------------------------------------------ *)
(* Reading.                                                            *)

type reader = { data : string; mutable pos : int }

let reader ?(pos = 0) data = { data; pos }
let at_end r = r.pos >= String.length r.data

let need r n =
  if n < 0 || r.pos + n > String.length r.data then malformed "truncated field"

let finish r what =
  if r.pos <> String.length r.data then malformed "trailing %s bytes" what

let get_u8 r =
  need r 1;
  let v = String.get_uint8 r.data r.pos in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.data r.pos) land 0xFFFF_FFFF in
  r.pos <- r.pos + 4;
  v

let get_bits64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let get_u64 r =
  let v = get_bits64 r in
  if Int64.compare v 0L < 0 then malformed "64-bit field out of range";
  Int64.to_int v

let get_bytes r n =
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_str r = get_bytes r (get_u32 r)
let get_bool r = get_u8 r <> 0
let get_opt get r = if get_u8 r = 0 then None else Some (get r)
let get_list get r = List.init (get_u32 r) (fun _ -> get r)

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven.           *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 ?(crc = 0) s =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = 0 to String.length s - 1 do
    (* the index is masked to 0..255, the table's size *)
    let byte = Char.code (String.unsafe_get s i) in
    c := Array.unsafe_get crc_table ((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
