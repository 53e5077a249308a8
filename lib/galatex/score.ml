(* Per-node answer scoring (paper Section 3.3): the final AllMatches carries
   one score per match; the score of a query answer (an XML node in the
   evaluation context) composes the scores of the matches the node
   satisfies.  The paper composes with the FTOr formula (noisy-or). *)

let compose_noisy_or scores =
  (* right-associated product, matching the fts:noisyOr recursion in the
     XQuery module so the strategies agree bit-for-bit *)
  1.0 -. List.fold_right (fun s acc -> (1.0 -. s) *. acc) scores 1.0

(* Score of one located node against a final AllMatches. *)
let site_score ?includes_inside env site am =
  match Ft_ops.site_matches ?includes_inside env site am with
  | [] -> 0.0
  | ms ->
      let s = compose_noisy_or (List.map (fun m -> m.All_matches.score) ms) in
      (* requirement (i): a satisfying node scores in (0,1] *)
      if s <= 0.0 then epsilon_float else if s > 1.0 then 1.0 else s

let node_score env node am =
  match Ft_ops.locate env node with
  | None -> 0.0
  | Some site -> site_score env site am

let scores env nodes am = List.map (fun n -> node_score env n am) nodes

(* The two W3C scoring requirements (Section 2.2): used by tests and the S1
   experiment. *)
let requirement_zero_iff_no_match env node am =
  let s = node_score env node am in
  let satisfies = Ft_ops.node_satisfies env node am in
  (s = 0.0) = not satisfies && (s >= 0.0 && s <= 1.0)

let requirement_in_unit_interval s = s >= 0.0 && s <= 1.0
