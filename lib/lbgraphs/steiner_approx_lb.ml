open Ch_graph
open Ch_cc
open Ch_core

type params = { collection : Covering.t; alpha : int }

let make_params ?(seed = 0) ~ell ~t_count ~r () =
  { collection = Covering.construct ~seed ~ell ~t_count ~r (); alpha = r + 1 }

(* shared layout with the k-MDS construction: a_j, b_j, S_i, S̄_i, a, b, R *)
module Ix = struct
  let a_elt _p j = j

  let b_elt p j = p.collection.Covering.ell + j

  let s p i = (2 * p.collection.Covering.ell) + i

  let s_bar p i =
    (2 * p.collection.Covering.ell) + Array.length p.collection.Covering.sets + i

  let hub_a p =
    (2 * p.collection.Covering.ell) + (2 * Array.length p.collection.Covering.sets)

  let hub_b p = hub_a p + 1

  let root p = hub_a p + 2

  let n p = hub_a p + 3
end

let terminals p =
  List.init (2 * p.collection.Covering.ell) Fun.id

(* ---------------- node-weighted (Theorem 4.6) ---------------- *)

(* the fixed topology: every set vertex at the heavy weight α, the rest
   free *)
let node_weighted_core p =
  let ell = p.collection.Covering.ell in
  let t_count = Array.length p.collection.Covering.sets in
  let g = Graph.create ~default_vweight:0 (Ix.n p) in
  for i = 0 to t_count - 1 do
    Graph.set_vweight g (Ix.s p i) p.alpha;
    Graph.set_vweight g (Ix.s_bar p i) p.alpha
  done;
  for j = 0 to ell - 1 do
    Graph.add_edge g (Ix.a_elt p j) (Ix.b_elt p j)
  done;
  for i = 0 to t_count - 1 do
    Graph.add_edge g (Ix.hub_a p) (Ix.s p i);
    Graph.add_edge g (Ix.hub_b p) (Ix.s_bar p i);
    for j = 0 to ell - 1 do
      if Covering.mem p.collection ~set:i j then
        Graph.add_edge g (Ix.s p i) (Ix.a_elt p j)
      else Graph.add_edge g (Ix.s_bar p i) (Ix.b_elt p j)
    done
  done;
  Graph.add_edge g (Ix.root p) (Ix.hub_a p);
  Graph.add_edge g (Ix.root p) (Ix.hub_b p);
  g

let side p =
  let side = Array.make (Ix.n p) false in
  for j = 0 to p.collection.Covering.ell - 1 do
    side.(Ix.a_elt p j) <- true
  done;
  for i = 0 to Array.length p.collection.Covering.sets - 1 do
    side.(Ix.s p i) <- true
  done;
  side.(Ix.hub_a p) <- true;
  side

let params_of p =
  [
    ("ell", p.collection.Covering.ell);
    ("T", Array.length p.collection.Covering.sets);
    ("r", p.collection.Covering.r);
  ]

let node_weighted_family p =
  Framework.family ~name:"node-weighted-steiner-log-approx (Thm 4.6)" ~params:(params_of p)
    ~side:(side p)
    ~core:(fun () -> Framework.With_terminals (node_weighted_core p, terminals p))
    ~input_bits:(Array.length p.collection.Covering.sets)
    ~x:(Covering.cheap_when_set (Ix.s p)) ~y:(Covering.cheap_when_set (Ix.s_bar p))
    ~objective:(Framework.Of_terminals Ch_solvers.Steiner.node_weighted)
    ~goal:(Framework.At_most 2) ~f:Commfn.intersecting

let node_weighted_gap_holds p =
  Framework.gap_holds (node_weighted_family p) ~no:(Covering.beyond_r p.collection)

(* Fixed topology, weights-only inputs: the same split as Kmds_lb, but
   the solve goes through the connector-feasibility table of
   Cache.nwsteiner rather than domination balls. *)
let node_weighted_incremental p =
  let fam = node_weighted_family p in
  Framework.incremental fam (fun ~patch ->
      let nc =
        Ch_solvers.Cache.nwsteiner_prepare (Framework.graph_of (Framework.core fam))
          ~terminals:(terminals p)
      in
      {
        Framework.verdict =
          (fun x y ->
            let weights = Graph.vweights (Framework.graph_of (patch x y)) in
            Ch_solvers.Cache.nwsteiner_cost nc ~weights <= 2);
        stats = (fun () -> Ch_solvers.Cache.nwsteiner_stats nc);
      })

(* ---------------- directed (Theorem 4.7) ---------------- *)

(* everything except the input-dependent zero-weight set→element arcs *)
let directed_core_digraph p =
  let ell = p.collection.Covering.ell in
  let t_count = Array.length p.collection.Covering.sets in
  let dg = Digraph.create (Ix.n p) in
  Digraph.add_arc ~w:0 dg (Ix.root p) (Ix.hub_a p);
  Digraph.add_arc ~w:0 dg (Ix.root p) (Ix.hub_b p);
  for i = 0 to t_count - 1 do
    Digraph.add_arc ~w:1 dg (Ix.hub_a p) (Ix.s p i);
    Digraph.add_arc ~w:1 dg (Ix.hub_b p) (Ix.s_bar p i)
  done;
  for j = 0 to ell - 1 do
    Digraph.add_arc ~w:0 dg (Ix.a_elt p j) (Ix.b_elt p j);
    Digraph.add_arc ~w:0 dg (Ix.b_elt p j) (Ix.a_elt p j);
    (* fallback arcs guaranteeing feasibility *)
    Digraph.add_arc ~w:p.alpha dg (Ix.hub_a p) (Ix.a_elt p j);
    Digraph.add_arc ~w:p.alpha dg (Ix.hub_b p) (Ix.b_elt p j)
  done;
  dg

(* bit i of x adds the zero-weight arcs S_i → a_j for j ∈ S_i when set,
   bit i of y the arcs S̄_i → b_j for j ∉ S_i *)
let arc_bits p ~mine set_vertex elt i =
  {
    Framework.at0 = [];
    at1 =
      List.filter_map
        (fun j ->
          if Covering.mem p.collection ~set:i j = mine then
            Some (Framework.Edge (set_vertex p i, elt p j, 0))
          else None)
        (List.init p.collection.Covering.ell Fun.id);
  }

let directed_family p =
  Framework.family ~name:"directed-steiner-log-approx (Thm 4.7)" ~params:(params_of p)
    ~side:(side p)
    ~core:(fun () -> Framework.Rooted_digraph (directed_core_digraph p, Ix.root p, terminals p))
    ~input_bits:(Array.length p.collection.Covering.sets)
    ~x:(arc_bits p ~mine:true Ix.s Ix.a_elt) ~y:(arc_bits p ~mine:false Ix.s_bar Ix.b_elt)
    ~objective:
      (Framework.Of_rooted
         (fun dg ~root terms ->
           Option.value ~default:max_int (Ch_solvers.Steiner.directed dg ~root terms)))
    ~goal:(Framework.At_most 2) ~f:Commfn.intersecting

let directed_gap_holds p =
  Framework.gap_holds (directed_family p) ~no:(Covering.beyond_r p.collection)

(* The shared reversed rows snapshot the core; per-pair arcs ride in as
   ~extra, so no pair is ever patched in. *)
let directed_incremental p =
  let fam = directed_family p in
  Framework.incremental fam (fun ~patch:_ ->
      let ds =
        match Framework.core fam with
        | Framework.Rooted_digraph (dg, root, terminals) ->
            Ch_solvers.Cache.dsteiner_prepare dg ~root ~terminals
        | _ -> assert false
      in
      {
        Framework.verdict =
          (fun x y ->
            match
              Ch_solvers.Cache.dsteiner_cost ~cutoff:2 ds ~extra:(Framework.weighted_edges fam x y)
            with
            | Some cost -> cost <= 2
            | None -> false);
        stats = (fun () -> Ch_solvers.Cache.dsteiner_stats ds);
      })

(* registry scale: the k = 2 collection (ell = 4, T = 3) keeps the
   2ell-terminal Dreyfus-Wagner scratch solver exhaustive-feasible *)
let registry_params k =
  let ell, t_count = if k <= 2 then (4, 3) else (6, 5) in
  make_params ~seed:1 ~ell ~t_count ~r:2 ()

let specs =
  let spec ~id ~title ~paper_ref ~incremental family =
    Registry.spec ~id ~title ~paper_ref ~origin:"Steiner_approx_lb" ~default_k:2 ~sweep_ks:[ 2 ]
      ~incremental:(fun k -> incremental (registry_params k))
      (fun k -> family (registry_params k))
  in
  [
    spec ~id:"steiner-node-weighted" ~title:"node-weighted Steiner log-approx"
      ~paper_ref:"Thm 4.6, Fig 6" ~incremental:node_weighted_incremental node_weighted_family;
    spec ~id:"steiner-directed" ~title:"directed Steiner log-approx" ~paper_ref:"Thm 4.7, Fig 6"
      ~incremental:directed_incremental directed_family;
  ]
