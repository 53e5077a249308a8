(** Word-level normalization used by the case / diacritics / special-character
    match options. *)

val casefold : string -> string
(** ASCII case folding (search and document words are compared through this
    when the query is case insensitive — the spec default).  Equal to
    [String.lowercase_ascii s], and [s] itself when [s] has no ASCII
    uppercase letter. *)

val strip_diacritics : string -> string
(** Strip Latin-1 Supplement / Latin Extended-A diacritics to base ASCII
    letters ("café" -> "cafe"). *)

val is_special : char -> bool
(** Special character in the sense of the FTSpecialCharOption: neither
    alphanumeric nor whitespace. *)

val special_chars_to_pattern : string -> string
(** Replace each special character in a search word with the regular
    expression [".?"] (the paper's Section 3.2.3.2 technique). *)
