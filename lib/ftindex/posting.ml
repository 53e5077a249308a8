(* One inverted-list entry: a TokenInfo plus the document it came from.
   The per-entry probabilistic score of Section 3.3 is not stored: it
   depends on corpus-wide statistics that live updates change, so it is
   computed from the index version being queried ({!Stats.score}). *)

type t = { doc : string; token : Tokenize.Token.t }

let make ~doc token = { doc; token }

let word p = p.token.Tokenize.Token.norm
let abs_pos p = p.token.Tokenize.Token.abs_pos
let node p = p.token.Tokenize.Token.node
let sentence p = p.token.Tokenize.Token.sentence
let para p = p.token.Tokenize.Token.para

let compare_pos a b =
  match String.compare a.doc b.doc with
  | 0 -> Int.compare (abs_pos a) (abs_pos b)
  | c -> c
