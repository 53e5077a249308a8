(* Word normalization for the FTMatchOptions that operate "at the level of
   individual words" (Section 3.1.4): case folding and diacritics removal.
   Diacritic stripping maps Latin-1 Supplement and Latin Extended-A code
   points to their base ASCII letters; other characters pass through. *)

(* Map a Unicode code point carrying a diacritic to its base letter(s). *)
let strip_diacritic_uchar u =
  match Uchar.to_int u with
  | c when c >= 0xC0 && c <= 0xC5 -> Some "A"
  | 0xC6 -> Some "AE"
  | 0xC7 -> Some "C"
  | c when c >= 0xC8 && c <= 0xCB -> Some "E"
  | c when c >= 0xCC && c <= 0xCF -> Some "I"
  | 0xD0 -> Some "D"
  | 0xD1 -> Some "N"
  | c when (c >= 0xD2 && c <= 0xD6) || c = 0xD8 -> Some "O"
  | c when c >= 0xD9 && c <= 0xDC -> Some "U"
  | 0xDD -> Some "Y"
  | 0xDF -> Some "ss"
  | c when c >= 0xE0 && c <= 0xE5 -> Some "a"
  | 0xE6 -> Some "ae"
  | 0xE7 -> Some "c"
  | c when c >= 0xE8 && c <= 0xEB -> Some "e"
  | c when c >= 0xEC && c <= 0xEF -> Some "i"
  | 0xF1 -> Some "n"
  | c when (c >= 0xF2 && c <= 0xF6) || c = 0xF8 -> Some "o"
  | c when c >= 0xF9 && c <= 0xFC -> Some "u"
  | c when c = 0xFD || c = 0xFF -> Some "y"
  | c when c >= 0x100 && c <= 0x105 -> Some (if c land 1 = 0 then "A" else "a")
  | c when c >= 0x106 && c <= 0x10D -> Some (if c land 1 = 0 then "C" else "c")
  | c when c >= 0x10E && c <= 0x111 -> Some (if c land 1 = 0 then "D" else "d")
  | c when c >= 0x112 && c <= 0x11B -> Some (if c land 1 = 0 then "E" else "e")
  | c when c >= 0x11C && c <= 0x123 -> Some (if c land 1 = 0 then "G" else "g")
  | c when c >= 0x124 && c <= 0x127 -> Some (if c land 1 = 0 then "H" else "h")
  | c when c >= 0x128 && c <= 0x131 -> Some (if c land 1 = 0 then "I" else "i")
  | c when c >= 0x139 && c <= 0x142 -> Some (if c land 1 = 1 then "L" else "l")
  | c when c >= 0x143 && c <= 0x148 -> Some (if c land 1 = 1 then "N" else "n")
  | c when c >= 0x14C && c <= 0x151 -> Some (if c land 1 = 0 then "O" else "o")
  | c when c >= 0x154 && c <= 0x159 -> Some (if c land 1 = 0 then "R" else "r")
  | c when c >= 0x15A && c <= 0x161 -> Some (if c land 1 = 0 then "S" else "s")
  | c when c >= 0x162 && c <= 0x167 -> Some (if c land 1 = 0 then "T" else "t")
  | c when c >= 0x168 && c <= 0x173 -> Some (if c land 1 = 0 then "U" else "u")
  | c when c >= 0x179 && c <= 0x17E -> Some (if c land 1 = 1 then "Z" else "z")
  | _ -> None

let fold_utf8 f acc s =
  let n = String.length s in
  let rec loop acc i =
    if i >= n then acc
    else
      let d = String.get_utf_8_uchar s i in
      let u = Uchar.utf_decode_uchar d in
      let len = Uchar.utf_decode_length d in
      loop (f acc u) (i + len)
  in
  loop acc 0

let strip_diacritics s =
  if String.for_all (fun c -> Char.code c < 0x80) s then s
  else begin
    let buf = Buffer.create (String.length s) in
    fold_utf8
      (fun () u ->
        match strip_diacritic_uchar u with
        | Some base -> Buffer.add_string buf base
        | None -> Buffer.add_utf_8_uchar buf u)
      () s;
    Buffer.contents buf
  end

(* Most words are already lowercase: return those as they are, so a
   token's key shares its surface string and a lookup allocates nothing. *)
let casefold s =
  if String.exists (fun c -> c >= 'A' && c <= 'Z') s then
    String.lowercase_ascii s
  else s

(* The paper's "special characters" option replaces each special character
   with the regular expression ".?" (Section 3.2.3.2).  A character is
   special when it is neither alphanumeric nor plain whitespace. *)
let is_special c =
  not
    ((c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = ' ' || c = '\t' || c = '\n' || c = '\r')

let special_chars_to_pattern word =
  let buf = Buffer.create (String.length word + 8) in
  String.iter
    (fun c ->
      if is_special c then Buffer.add_string buf ".?"
      else Buffer.add_char buf c)
    word;
  Buffer.contents buf
