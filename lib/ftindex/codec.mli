(** The byte codec every persistent and wire format shares: snapshot
    segments ({!Store}), WAL records ({!Wal}), the daemon's request and
    response payloads and the socket frame's length prefix.

    Fixed-width integers are little-endian; a string is a [u32] length
    then its bytes; a bool is one byte (any non-zero byte reads as
    [true]); an option is a 0 byte, or a 1 byte and the value; a list is
    a [u32] count then its elements.  Decoding goes through a {!reader}
    that checks every read against the end of its input and raises
    {!Malformed}, which each format turns into its own verdict (a
    salvage, [Frame_corrupt], [GTLX0010], an [Error] reply).  Changing
    an encoding here changes every format at once; the golden-bytes
    tests pin them. *)

exception Malformed of string

val malformed : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted reason. *)

(** {1 Writing} *)

val put_u8 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit

val put_u64 : Buffer.t -> int -> unit
(** The low 63 bits, in 8 bytes. *)

val put_bits64 : Buffer.t -> int64 -> unit
val put_str : Buffer.t -> string -> unit
val put_bool : Buffer.t -> bool -> unit
val put_opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val put_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

(** {1 Reading} *)

type reader

val reader : ?pos:int -> string -> reader
(** Read from [pos] (default 0). *)

val at_end : reader -> bool
(** Every byte has been read: an optional trailing field is absent. *)

val need : reader -> int -> unit
(** Raise unless [n >= 0] more bytes remain. *)

val finish : reader -> string -> unit
(** [finish r what] raises ["trailing <what> bytes"] unless the input is
    fully read. *)

val get_u8 : reader -> int
val get_u32 : reader -> int

val get_u64 : reader -> int
(** Raises when the top bit is set (outside OCaml's [int]). *)

val get_bits64 : reader -> int64

val get_bytes : reader -> int -> string
(** The next [n] raw bytes. *)

val get_str : reader -> string
val get_bool : reader -> bool
val get_opt : (reader -> 'a) -> reader -> 'a option
val get_list : (reader -> 'a) -> reader -> 'a list

val crc32 : ?crc:int -> string -> int
(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial).  [crc32 ~crc s], where
    [crc] is the CRC-32 of some bytes, is the CRC-32 of those bytes
    followed by [s], so a sequence of strings can be checksummed without
    concatenating it. *)
