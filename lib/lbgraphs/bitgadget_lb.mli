open Ch_core

(** The multiparty bit-gadget family: set intersection decided by exact
    MDS on a construction whose two-party cut is logarithmic (2·log₂ k
    edges — one bit gadget per bit position, as in arXiv:1901.01630) and
    which registers a 4-part partition (rows+pool | gadgets, per side)
    with an input-independent multicut — the repository's first t > 2
    workload for the partitioned lockstep simulation.

    Inputs are k-bit sets: x_i wires Alice's pool vertex to row a_i, y_j
    Bob's to b_j.  γ(G_{x,y}) ≤ 2·log₂ k + 2 iff x ∩ y ≠ ∅; a zero input
    isolates its pool vertex, leaving the connected-network model (such
    pairs are filtered from simulation sweeps, and the verdict is still
    "no").  k must be a power of two, at least 2. *)

val target_size : k:int -> int
(** 2·log₂ k + 2. *)

val side : k:int -> bool array

val partition : k:int -> int array
(** The registered 4-part partition: part 0 = Alice's rows and pool,
    1 = Alice's gadgets, 2 = Bob's gadgets, 3 = Bob's rows and pool. *)

val family : k:int -> Framework.t

val incremental : k:int -> Framework.incremental
(** Prepared verification: the gadget core is patched per pair and the
    dominating-set search reuses cached radius-1 balls, as in [Mds_lb]. *)

val specs : Registry.spec list
