open Ch_graph
open Ch_core

let target_edges ~k = (4 * k) + (16 * Bitgadget.log2 k) + 1

let terminals ~k = List.init (Mds_lb.Ix.n ~k) Fun.id

(* The Theorem 2.6 transform is edge-local in the base graph: each base
   edge {u,v} contributes exactly (ũ,v) and (ṽ,u), everything else
   (identity edges, copy cliques, crossing edges) is base-edge
   independent.  So transform(core) + mapped input edges =
   transform(full base graph) — the fact [Framework.reduce] relies on. *)
let transform_graph ~k g =
  let n = Graph.n g in
  let side = Mds_lb.side ~k in
  let g' = Graph.create (2 * n) in
  let copy v = n + v in
  Graph.iter_edges
    (fun u v _ ->
      Graph.add_edge g' (copy u) v;
      Graph.add_edge g' (copy v) u)
    g;
  for v = 0 to n - 1 do
    Graph.add_edge g' (copy v) v
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if side.(u) = side.(v) then Graph.add_edge g' (copy u) (copy v)
    done
  done;
  let f0a1 = Mds_lb.Ix.f ~k Mds_lb.A1 0
  and t0a1 = Mds_lb.Ix.t ~k Mds_lb.A1 0
  and f0b1 = Mds_lb.Ix.f ~k Mds_lb.B1 0
  and t0b1 = Mds_lb.Ix.t ~k Mds_lb.B1 0 in
  Graph.add_edge g' (copy f0a1) (copy f0b1);
  Graph.add_edge g' (copy t0a1) (copy t0b1);
  g'

let family ~k =
  let t = Bitgadget.check_k "Steiner_lb" k in
  let base = Mds_lb.family ~k in
  let n = base.Framework.nvertices in
  let extra_budget = (4 * t) + 2 in
  Framework.reduce ~name:"steiner-tree (Thm 2.7)"
    ~transform:(fun inst ->
      match inst with
      | Framework.Undirected g -> Framework.With_terminals (transform_graph ~k g, terminals ~k)
      | _ -> invalid_arg "Steiner_lb: undirected expected")
    ~element:(function
      | Framework.Edge (u, v, _) -> [ Framework.Edge (n + u, v, 1); Framework.Edge (n + v, u, 1) ]
      | _ -> invalid_arg "Steiner_lb: edge elements only")
    ~side:(Array.append base.Framework.side base.Framework.side)
    ~objective:
      (* a Steiner tree with target_edges edges = terminals plus
         extra_budget connector copies; none within the budget is as
         good as none at all *)
      (Framework.Of_terminals
         (fun g terms ->
           Option.value ~default:max_int
             (Ch_solvers.Steiner.min_extra_nodes ~cap:extra_budget g terms)))
    ~goal:(Framework.At_most extra_budget) base

let incremental ~k =
  let fam = family ~k in
  let extra_budget = (4 * Bitgadget.log2 k) + 2 in
  Framework.incremental fam (fun ~patch:_ ->
      let sc =
        match Framework.core fam with
        | Framework.With_terminals (g, terminals) ->
            Ch_solvers.Cache.steiner_prepare g ~terminals ~volatile:(Framework.volatile fam)
              ~cap:extra_budget
        | _ -> assert false
      in
      {
        Framework.verdict =
          (fun x y ->
            match Ch_solvers.Cache.steiner_min_extra sc ~extra:(Framework.edges fam x y) with
            | Some extra -> extra <= extra_budget
            | None -> false);
        stats = (fun () -> Ch_solvers.Cache.steiner_stats sc);
      })

let specs =
  [
    Registry.spec ~id:"steiner" ~title:"Steiner tree (cardinality)" ~paper_ref:"Thm 2.7"
      ~origin:"Steiner_lb" ~default_k:2 ~sweep_ks:[ 2; 4 ] ~incremental:(fun k -> incremental ~k)
      (fun k -> family ~k);
  ]
