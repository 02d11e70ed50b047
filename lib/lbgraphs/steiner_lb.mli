(** The Theorem 2.7 family: minimum Steiner tree, by the Theorem 2.6
    reduction from the MDS family (Section 2.3.2).

    Every vertex v of the MDS graph gets a copy ṽ; identity edges (ṽ,v),
    "original" edges (ũ,v) and (ṽ,u) per MDS edge {u,v}, cliques on Ṽ_A
    and Ṽ_B, and exactly two crossing edges (f̃⁰_{A1}, f̃⁰_{B1}) and
    (t̃⁰_{A1}, t̃⁰_{B1}).  With the original vertices as terminals, a
    Steiner tree with 4k + 16·log k + 1 edges exists iff the MDS instance
    has a dominating set of size 4·log k + 2, i.e. iff DISJ(x,y) =
    FALSE. *)

val target_edges : k:int -> int
(** 4k + 16·log k + 1. *)

val terminals : k:int -> int list
(** The original vertices 0 .. n−1. *)

val family : k:int -> Ch_core.Framework.t
(** The Theorem 2.6 transform of the MDS family, through
    [Framework.reduce]: the transform is edge-local, so the core is the
    transformed MDS core and each MDS input edge {u,v} becomes the two
    elements (ũ,v) and (ṽ,u). *)

val incremental : k:int -> Ch_core.Framework.incremental
(** Incremental descriptor backed by the conditioned connectivity table
    of {!Ch_solvers.Cache.steiner_prepare} over the 8k vertices the
    input edges touch (the rows and their copies): every
    candidate connector set up to the budget is reduced once to the core
    component ids of its volatile vertices — sets with a component no
    input edge can reach are dropped, equal projections kept at their
    smallest size (1 095 entries of 60 460 sets at k = 2) — and each pair
    only replays its ≤ 16 input edges over those ids.  Bit-identical to
    the scratch {!Ch_solvers.Steiner.min_extra_nodes}-based predicate. *)

val specs : Ch_core.Registry.spec list
(** Registry entry ["steiner"]: incremental. *)
