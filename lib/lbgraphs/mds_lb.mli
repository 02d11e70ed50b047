(** The Figure 1 / Theorem 2.1 family: deciding whether a graph has a
    dominating set of size 4·log k + 2 requires Ω(n²/log² n) rounds.

    Four rows A₁, A₂, B₁, B₂ of k vertices are attached to per-set bit
    gadgets F_S, T_S, U_S (log k vertices each) by binary representation;
    the gadget triples are tied together by 6-cycles
    (f^h_{Aℓ}, t^h_{Aℓ}, u^h_{Aℓ}, f^h_{Bℓ}, t^h_{Bℓ}, u^h_{Bℓ}).
    Alice's input adds the edge (a^i₁, a^j₂) iff x_{i,j} = 1 and Bob's adds
    (b^i₁, b^j₂) iff y_{i,j} = 1; the graph then has a dominating set of
    size 4·log k + 2 iff DISJ(x,y) = FALSE. *)

type set = A1 | A2 | B1 | B2

val set_index : set -> int
(** 0..3, the row-block order used by the other constructions too. *)

module Ix : sig
  val n : k:int -> int
  (** 4k + 12·log k. *)

  val row : k:int -> set -> int -> int

  val f : k:int -> set -> int -> int

  val t : k:int -> set -> int -> int

  val u : k:int -> set -> int -> int
end

val target_size : k:int -> int
(** 4·log k + 2. *)

val side : k:int -> bool array
(** V_A = A₁ ∪ A₂ ∪ (their bit gadgets). *)

val family : k:int -> Ch_core.Framework.t
(** The core is the gadget graph; bit (i, j) of x adds (a₁^i, a₂^j) when
    set, and bit (i, j) of y adds (b₁^i, b₂^j). *)

val incremental : k:int -> Ch_core.Framework.incremental
(** The incremental descriptor: shared dominating-set balls of the core
    ({!Ch_solvers.Cache.domset_prepare}), patched per pair by its input
    edges, instead of a fresh build + BFS sweep per pair. *)

val specs : Ch_core.Registry.spec list
(** Registry entry ["mds"], incremental. *)
