(** r-covering collections (Lemma 4.2, after [40]): a collection
    S₁, …, S_T of subsets of [ℓ] such that any r sets drawn from
    \{Sᵢ, S̄ᵢ\} containing no complementary pair leave some element of [ℓ]
    uncovered.  Used by the 2-MDS / k-MDS / Steiner-variant gap
    constructions.

    Sets are bit masks over ℓ ≤ 30 elements. *)

type t = { ell : int; r : int; sets : int array }

val property_holds : ell:int -> r:int -> int array -> bool
(** Exhaustive check over all polarity choices of all r-subsets. *)

val construct : ?seed:int -> ell:int -> t_count:int -> r:int -> unit -> t
(** Random construction with exhaustive verification, retrying until the
    property holds.  @raise Failure after too many attempts. *)

val mem : t -> set:int -> int -> bool
(** Is element j in S_set? *)

val cheap_when_set : (int -> int) -> int -> Ch_core.Framework.bit
(** The covering-design families' input encoding: bit i makes its set
    vertex [vertex i] cheap (weight 1) when set, and the core weighs it
    α otherwise. *)

val beyond_r : t -> Ch_core.Framework.goal
(** [At_least (r + 1)]: where the inputs are disjoint, the r-covering
    property puts the optimum of every covering-design family above r —
    the no side of its gap ({!Ch_core.Framework.gap_holds}). *)
