open Ch_cc

(** Section 4.4 (Figure 6): no O(log n)-approximation for the
    node-weighted and the directed Steiner tree problems.

    Both reuse the covering-collection machinery: terminals are the
    element vertices a_j, b_j; connecting them through cheap set vertices
    is possible at cost 2 iff the inputs intersect, and otherwise the
    r-covering property forces cost > r (Lemmas 4.5 and 4.6). *)

type params = { collection : Covering.t; alpha : int }

val make_params : ?seed:int -> ell:int -> t_count:int -> r:int -> unit -> params

val terminals : params -> int list

val node_weighted_family : params -> Ch_core.Framework.t
(** Theorem 4.6: node-weighted Steiner tree, predicate: cost ≤ 2.  The
    core weighs every set vertex α; bit i of x makes S_i cheap (weight
    1) when set, bit i of y S̄_i. *)

val directed_family : params -> Ch_core.Framework.t
(** Theorem 4.7: directed Steiner tree rooted at R, predicate: cost ≤ 2.
    Bit i of x adds the zero-weight arcs S_i → a_j (j ∈ S_i) when set,
    bit i of y the arcs S̄_i → b_j (j ∉ S_i). *)

val node_weighted_gap_holds : params -> Bits.t -> Bits.t -> bool

val directed_gap_holds : params -> Bits.t -> Bits.t -> bool

(** {1 Incremental verification}

    Node-weighted: fixed topology, weights-only inputs — the connector
    feasibility table ({!Ch_solvers.Cache.nwsteiner_prepare}) is computed
    once and every pair is a weight fold.  Directed: the core's reversed
    adjacency is snapshotted once and each pair's zero-weight set→element
    arcs ride in as the query delta
    ({!Ch_solvers.Cache.dsteiner_prepare}). *)

val node_weighted_incremental : params -> Ch_core.Framework.incremental
(** Verdicts bit-identical to {!node_weighted_family}. *)

val directed_incremental : params -> Ch_core.Framework.incremental
(** Verdicts bit-identical to {!directed_family}. *)

val specs : Ch_core.Registry.spec list
(** Registry entries ["steiner-node-weighted"] and ["steiner-directed"],
    both incremental. *)
