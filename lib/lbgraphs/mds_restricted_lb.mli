open Ch_cc

(** Section 4.5 (Figure 7): hardness of approximating weighted MDS for
    local-aggregate algorithms.

    The 2-MDS gadget with the element pairs a_j, b_j merged into single
    vertices j of weight α; the j's belong to neither player and are
    simulated jointly (see [Ch_limits.Aggregate]).  Weighted MDS is 2 iff
    the inputs intersect, and otherwise exceeds r (Lemma 4.7). *)

type params = { collection : Covering.t; alpha : int }

val make_params : ?seed:int -> ell:int -> t_count:int -> r:int -> unit -> params

val nvertices : params -> int

val element : params -> int -> int
(** Vertex id of element j (jointly simulated). *)

val owner : params -> int -> [ `Alice | `Bob | `Shared ]
(** Which player simulates each vertex. *)

val family : params -> Ch_core.Framework.t
(** The core is the fixed topology with every set vertex at weight α;
    bit i of x makes S_i cheap (weight 1) when set, bit i of y S̄_i.  For
    the Definition 1.1 checks the shared vertices are assigned to Alice;
    the Theorem 4.8 simulation accounts for them separately. *)

val gap_holds : params -> Bits.t -> Bits.t -> bool

val incremental : params -> Ch_core.Framework.incremental
(** Fixed topology, weights-only inputs (the same split as {!Kmds_lb}):
    memoized radius-1 balls of the core; verdicts bit-identical to
    {!family}. *)

val specs : Ch_core.Registry.spec list
(** Registry entry ["mds-restricted"], incremental. *)
