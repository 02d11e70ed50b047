(** The MaxIS/MVC bit-gadget family of Censor-Hillel–Khoury–Paz [10],
    re-derived from the description in the paper (Sections 3.2 and 4.1):
    rows A₁, A₂, B₁, B₂ are k-cliques; per-set bit gadgets F_S, T_S with
    intra-pair edges (f^h_S, t^h_S) and equality cross edges
    (f^h_{Aℓ}, t^h_{Bℓ}), (t^h_{Aℓ}, f^h_{Bℓ}); each row vertex conflicts
    with the gadget vertices contradicting its binary representation; and
    the input edge (a₁^i, a₂^j) is present iff x_{i,j} = 0 (resp. y for
    B).  Then α(G_{x,y}) = 4·log k + 4 iff DISJ(x,y) = FALSE (Claim 3.6's
    Z = n_G − 4(k−1) − 4·log k), and otherwise α = 4·log k + 3.

    This is both the Ω̃(n²) family for exact MaxIS/MVC and the input to
    the Section 3 bounded-degree pipeline. *)

module Ix : sig
  val n : k:int -> int
  (** 4k + 8·log k. *)

  val row : k:int -> Mds_lb.set -> int -> int

  val f : k:int -> Mds_lb.set -> int -> int

  val t : k:int -> Mds_lb.set -> int -> int
end

val alpha_target : k:int -> int
(** Z = 4·log k + 4. *)

val side : k:int -> bool array

val family : k:int -> Ch_core.Framework.t
(** The core holds the cliques, bit gadgets and conflict edges; bit
    (i, j) of x adds the complement edge (a₁^i, a₂^j) when it is 0 (of
    y, (b₁^i, b₂^j)).  Predicate: α(G) ≥ Z. *)

val incremental : k:int -> Ch_core.Framework.incremental
(** Incremental descriptor backed by the conditioned α table
    ({!Ch_solvers.Cache.mis_prepare} over the 4k row vertices, the
    family's volatile set): one enumeration of
    the (k+1)^4 row-independent subsets at prepare time, then a per-pair
    verdict that never rebuilds the graph or re-runs the branch and
    bound. *)

val mvc_family : k:int -> Ch_core.Framework.t
(** The complementary vertex-cover view: τ(G) ≤ n − Z. *)

val specs : Ch_core.Registry.spec list
(** Registry entries ["maxis"] (incremental) and ["mvc"]. *)
