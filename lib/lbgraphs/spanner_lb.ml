open Ch_graph
open Ch_core

let hub_weight ~k =
  (* anything exceeding the zero total of the original edges works; make
     it scale-visible *)
  ignore k;
  4

let target_cost ~k = hub_weight ~k * Mds_lb.target_size ~k

let hub_reduction g ~w =
  let n = Graph.n g in
  let g' = Graph.create (n + 1) in
  Graph.iter_edges (fun u v _ -> Graph.add_edge ~w:0 g' u v) g;
  for v = 0 to n - 1 do
    Graph.add_edge ~w g' n v
  done;
  g'

(* the hub transform is edge-local: an input edge keeps its endpoints
   at weight 0 *)
let family ~k =
  let base = Mds_lb.family ~k in
  Framework.reduce ~name:"weighted-2-spanner (Thm 3.4 variant)"
    ~transform:(fun inst ->
      match inst with
      | Framework.Undirected g ->
          Framework.Undirected (hub_reduction g ~w:(hub_weight ~k))
      | _ -> invalid_arg "expected undirected")
    ~element:(function
      | Framework.Edge (u, v, _) -> [ Framework.Edge (u, v, 0) ]
      | _ -> invalid_arg "Spanner_lb: edge elements only")
    ~side:(Array.append base.Framework.side [| true |])
    ~objective:(Framework.Of_graph (fun g -> fst (Ch_solvers.Spanner.min_weight_2_spanner g)))
    ~goal:(Framework.At_most (target_cost ~k)) base

let specs =
  [
    Registry.spec ~id:"2spanner" ~title:"weighted 2-spanner" ~paper_ref:"Thm 3.4 variant"
      ~origin:"Spanner_lb" ~default_k:2 ~sweep_ks:[ 2 ] (fun k -> family ~k);
  ]
