(** The Figure 3 / Theorem 2.8 family: deciding whether a weighted graph
    has a cut of weight M requires Ω(n²/log² n) rounds.

    The budget trick: every row vertex a₁^i carries weight-1 edges to the
    a₂^j with x_{i,j} = 0 plus an edge to N_A of weight Σ_j x_{i,j}, so the
    weight from a₁^i into A₂ ∪ {N_A} is always exactly k.  A maximum cut
    is forced (by the k⁴-weight edges) to place N_A, N_B opposite CA, CB
    and to pick consistent bit-gadget sides; it reaches
    M = k⁴(8·log k + 4) + k³(12·log k − 4) + 4k² + 4k iff some index pair
    has x_{i,j} = y_{i,j} = 1. *)

module Ix : sig
  val n : k:int -> int
  (** 4k + 8·log k + 5. *)

  val row : k:int -> Mds_lb.set -> int -> int

  val f : k:int -> Mds_lb.set -> int -> int

  val t : k:int -> Mds_lb.set -> int -> int

  val ca : k:int -> int

  val ca_bar : k:int -> int

  val cb : k:int -> int

  val na : k:int -> int

  val nb : k:int -> int
end

val target_weight : k:int -> int
(** M. *)

val side : k:int -> bool array

val family : k:int -> Ch_core.Framework.t
(** The core is the k⁴ skeleton, the 4-cycles, the row attachments and
    the 4k N-budget edges at weight 0.  Bit (i, j) of x adds the
    complement edge (a₁^i, a₂^j) of weight 1 when it is 0, and one unit
    of weight on (a₁^i, N_A) and on (a₂^j, N_A) when it is 1 (of y, the
    same on the B rows and N_B). *)

val incremental : k:int -> Ch_core.Framework.incremental
(** Incremental descriptor backed by the conditioned max-cut table
    ({!Ch_solvers.Cache.maxcut_prepare} over the 4k + 2 vertices the
    inputs touch: the rows and N_A, N_B): at prepare time one Gray-code
    walk per bit-gadget 4-cycle and over the path C_A–C̄_A–C_B for each
    assignment of their volatile neighbours, then 2^(4k+2) work per
    pair.  Like the
    from-scratch exact solver it is limited to n ≤ 30, i.e. k = 2 (the
    prepare raises instead of the solve). *)

val specs : Ch_core.Registry.spec list
(** Registry entry ["maxcut"], incremental. *)
