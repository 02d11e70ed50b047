(** Section 4.1: hardness of approximating MaxIS, built on Reed–Solomon
    code gadgets (Figure 4).

    Each row vertex is represented by a codeword of an
    (ℓ+t, t, ℓ+1, q) Reed–Solomon code; row j of the code gadget of a set
    S is a q-clique, cross edges (minus a perfect matching) force Alice's
    and Bob's gadget choices to agree per row, and a row vertex conflicts
    with every gadget vertex that contradicts its codeword.  Any
    independent set that picks inconsistent row indices loses at least ℓ
    gadget vertices — the code distance — which creates the 7/8 gap:

    - weighted (Thm 4.3): MWIS = 8ℓ+4t iff DISJ = FALSE, else 7ℓ+4t;
    - unweighted (Thm 4.1): rows become batches of ℓ twin vertices;
    - linear variant (Thm 4.2): A₁/B₁ are replaced by two batches v_A,
      v_B and the inputs have K = k bits; the gap is (5ℓ+2t)/(6ℓ+2t) →
      5/6. *)

type params = { k : int; ell : int; t : int; q : int }

val make_params : ?ell:int -> k:int -> unit -> params
(** t = log₂ k, ℓ defaults to t² (the paper's ℓ = c·log² k), q = the
    smallest prime exceeding ℓ+t. *)

val yes_weight : params -> int
(** 8ℓ + 4t. *)

val no_weight : params -> int
(** 7ℓ + 4t. *)

val codewords : params -> int array array
(** The injection g : [k] → C. *)

val weighted_family : params -> Ch_core.Framework.t

val unweighted_family : params -> Ch_core.Framework.t

val linear_yes_size : params -> int
(** 6ℓ + 2t. *)

val linear_family : params -> Ch_core.Framework.t
(** Input length K = k (set disjointness on singletons ⇒ Ω̃(n) bound). *)

(** {1 Incremental verification}

    Inputs only ever add edges among the row/batch vertices (bit = 0 ⇒
    edge), so each variant conditions an independent-set table on those
    volatile vertices once per core ({!Ch_solvers.Cache.mwis_prepare} for
    the weighted variant, {!Ch_solvers.Cache.mis_prepare} for the other
    two) and answers every pair by scanning for the best entry
    compatible with the pair's edges. *)

val weighted_incremental : params -> Ch_core.Framework.incremental
(** Verdicts bit-identical to {!weighted_family}. *)

val unweighted_incremental : params -> Ch_core.Framework.incremental
(** Verdicts bit-identical to {!unweighted_family}. *)

val linear_incremental : params -> Ch_core.Framework.incremental
(** Verdicts bit-identical to {!linear_family}. *)

val specs : Ch_core.Registry.spec list
(** Registry entries ["maxis-78-weighted"], ["maxis-78-unweighted"] and
    ["maxis-56"], all incremental. *)
