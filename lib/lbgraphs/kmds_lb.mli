open Ch_cc

(** Sections 4.2–4.3 (Figure 5): no O(log n)-approximation for weighted
    2-MDS / k-MDS.

    Element vertices a_j, b_j (weight α) are covered only by set vertices
    S_i / S̄_i whose weight is 1 precisely when the corresponding input
    bit is 1; everything else is covered for free through R (weight 0).
    If DISJ(x,y) = FALSE some index i has both S_i and S̄_i cheap and
    \{S_i, S̄_i\} is a k-MDS of weight 2; otherwise the cheap sets contain
    no complementary pair, so by the r-covering property any k-MDS has
    weight > r (Lemmas 4.3/4.4).  For k > 2 the set-element edges are
    subdivided into length-(k−1) paths. *)

type params = {
  collection : Covering.t;
  k : int;  (** the domination radius, ≥ 2 *)
  alpha : int;  (** the heavy weight, > r *)
}

val make_params : ?seed:int -> ?k:int -> ell:int -> t_count:int -> r:int -> unit -> params

val nvertices : params -> int

val yes_weight : int
(** 2. *)

val no_weight_exceeds : params -> int
(** r: every no-instance k-MDS weighs more than this. *)

val family : params -> Ch_core.Framework.t
(** The core is the fixed topology with every set vertex at weight α;
    bit i of x makes S_i cheap (weight 1) when set, bit i of y S̄_i.
    Predicate: minimum-weight radius-k dominating set ≤ 2. *)

val gap_holds : params -> Bits.t -> Bits.t -> bool
(** The full gap statement on one instance: weight ≤ 2 when intersecting,
    and > r when disjoint. *)

val incremental : params -> Ch_core.Framework.incremental
(** The topology never depends on the inputs — only the 2T set-vertex
    weights do — so the radius-k closed balls of the core are computed
    once ({!Ch_solvers.Cache.domset_prepare}) and every pair is a weight
    patch plus a ball-reusing weighted domination solve; verdicts
    bit-identical to {!family}. *)

val specs : Ch_core.Registry.spec list
(** Registry entries ["2mds"] and ["3mds"], both incremental. *)
