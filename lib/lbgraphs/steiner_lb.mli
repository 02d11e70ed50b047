(** The Theorem 2.7 family: minimum Steiner tree, by the Theorem 2.6
    reduction from the MDS family (Section 2.3.2).

    Every vertex v of the MDS graph gets a copy ṽ; identity edges (ṽ,v),
    "original" edges (ũ,v) and (ṽ,u) per MDS edge {u,v}, cliques on Ṽ_A
    and Ṽ_B, and exactly two crossing edges (f̃⁰_{A1}, f̃⁰_{B1}) and
    (t̃⁰_{A1}, t̃⁰_{B1}).  With the original vertices as terminals, a
    Steiner tree with 4k + 16·log k + 1 edges exists iff the MDS instance
    has a dominating set of size 4·log k + 2, i.e. iff DISJ(x,y) =
    FALSE. *)

open Ch_graph
open Ch_cc

val target_edges : k:int -> int
(** 4k + 16·log k + 1. *)

val terminals : k:int -> int list
(** The original vertices 0 .. n−1. *)

val transform_graph : k:int -> Graph.t -> Graph.t
(** The Theorem 2.6 vertex-doubling transform of a base MDS-family
    graph.  Edge-local: transforming the core and then adding the mapped
    input edges yields the same graph as transforming G_{x,y}. *)

val input_edges : k:int -> Bits.t -> Bits.t -> (int * int) list
(** The transformed input edges: each MDS input edge {u,v} becomes
    (ũ,v) and (ṽ,u). *)

val volatile : k:int -> int list
(** The 8k vertices input edges may touch: the 4k row vertices and their
    copies (16 at k = 2). *)

type core

val build_core : k:int -> core
(** [transform_graph] applied to the MDS core. *)

val apply_inputs : core -> Bits.t -> Bits.t -> Graph.t
(** In-place patch to the transformed G_{x,y}; the result aliases the
    core. *)

val family : k:int -> Ch_core.Framework.t

val incremental : k:int -> Ch_core.Framework.incremental
(** Incremental descriptor backed by the conditioned connectivity table
    of {!Ch_solvers.Cache.steiner_prepare} over {!volatile}: every
    candidate connector set up to the budget is reduced once to the core
    component ids of its volatile vertices — sets with a component no
    input edge can reach are dropped, equal projections kept at their
    smallest size (1 095 entries of 60 460 sets at k = 2) — and each pair
    only replays its ≤ 16 input edges over those ids.  Bit-identical to
    the scratch {!Ch_solvers.Steiner.min_extra_nodes}-based predicate. *)

val specs : Ch_core.Registry.spec list
(** Registry entry ["steiner"]: incremental. *)
