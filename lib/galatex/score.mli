(** Per-node answer scoring (paper Section 3.3): compose the scores of the
    matches a node satisfies. *)

val compose_noisy_or : float list -> float
(** The FTOr formula, 1 - prod(1 - s_i), right-associated to match the
    XQuery module's recursion bit-for-bit. *)

val site_score :
  ?includes_inside:bool -> Env.t -> Ft_ops.site -> All_matches.t -> float
(** {!node_score} of a located node; [includes_inside] as in
    {!Ft_ops.satisfies}. *)

val node_score : Env.t -> Xmlkit.Node.t -> All_matches.t -> float
(** 0.0 when the node satisfies no match, otherwise in (0,1]. *)

val requirement_zero_iff_no_match : Env.t -> Xmlkit.Node.t -> All_matches.t -> bool
(** W3C scoring requirement (i), checked for one node. *)

val requirement_in_unit_interval : float -> bool
