(** Exact minimum weighted 2-spanner hardness, in the spirit of
    Theorem 3.4.

    The paper derives 2-spanner hardness from MVC through the reduction of
    [9], whose construction it does not spell out.  We use a hub reduction
    from the MDS family instead: add a hub z adjacent to every vertex with
    weight W > 0 on the hub edges and weight 0 on the original edges.
    Zero-weight edges always belong to an optimal 2-spanner, and then the
    hub edge (z,v) is 2-spanned exactly when \{u : (z,u) chosen\} contains
    v or a neighbor of v — so the minimum 2-spanner cost is precisely
    W·γ(G).  Applied to the Figure 1 family this gives an Ω̃(n) bound for
    exact weighted 2-spanner on general graphs (the hub inflates the cut
    to Θ(n), so the quadratic rate is not preserved; [9]'s
    degree-preserving gadget would keep Ω̃(n) on bounded-degree graphs).
    The reduction identity is property-tested on random graphs. *)

val hub_weight : k:int -> int

val target_cost : k:int -> int
(** W · (4·log k + 2). *)

val hub_reduction : Ch_graph.Graph.t -> w:int -> Ch_graph.Graph.t
(** The generic transform: a fresh hub adjacent to all, hub edges of
    weight [w], original edges re-weighted to 0. *)

val family : k:int -> Ch_core.Framework.t

val specs : Ch_core.Registry.spec list
(** Registry entry ["2spanner"]. *)
