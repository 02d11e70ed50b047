open Ch_graph
open Ch_cc
open Ch_core

type params = { collection : Covering.t; alpha : int }

let make_params ?(seed = 0) ~ell ~t_count ~r () =
  { collection = Covering.construct ~seed ~ell ~t_count ~r (); alpha = r + 1 }

module Ix = struct
  let element _p j = j

  let s p i = p.collection.Covering.ell + i

  let s_bar p i = p.collection.Covering.ell + Array.length p.collection.Covering.sets + i

  let hub_a p = p.collection.Covering.ell + (2 * Array.length p.collection.Covering.sets)

  let hub_b p = hub_a p + 1

  let root p = hub_a p + 2

  let n p = hub_a p + 3
end

let nvertices p = Ix.n p

let element p j = Ix.element p j

(* the fixed topology, every set vertex at the heavy weight α *)
let core_graph p =
  let ell = p.collection.Covering.ell in
  let t_count = Array.length p.collection.Covering.sets in
  let g = Graph.create ~default_vweight:p.alpha (Ix.n p) in
  Graph.set_vweight g (Ix.hub_a p) 0;
  Graph.set_vweight g (Ix.hub_b p) 0;
  Graph.set_vweight g (Ix.root p) 0;
  for i = 0 to t_count - 1 do
    Graph.add_edge g (Ix.hub_a p) (Ix.s p i);
    Graph.add_edge g (Ix.hub_b p) (Ix.s_bar p i);
    for j = 0 to ell - 1 do
      if Covering.mem p.collection ~set:i j then
        Graph.add_edge g (Ix.s p i) (Ix.element p j)
      else Graph.add_edge g (Ix.s_bar p i) (Ix.element p j)
    done
  done;
  Graph.add_edge g (Ix.root p) (Ix.hub_a p);
  Graph.add_edge g (Ix.root p) (Ix.hub_b p);
  g

let owner p v =
  let t_count = Array.length p.collection.Covering.sets in
  if v < p.collection.Covering.ell then `Shared
  else if v < p.collection.Covering.ell + t_count then `Alice
  else if v < p.collection.Covering.ell + (2 * t_count) then `Bob
  else if v = Ix.hub_a p then `Alice
  else `Bob

let side p =
  Array.init (Ix.n p) (fun v ->
      match owner p v with `Alice | `Shared -> true | `Bob -> false)

let family p =
  Framework.family ~name:"restricted-mds-log-approx (Thm 4.8)"
    ~params:
      [
        ("ell", p.collection.Covering.ell);
        ("T", Array.length p.collection.Covering.sets);
        ("r", p.collection.Covering.r);
      ]
    ~side:(side p) ~core:(fun () -> Framework.Undirected (core_graph p))
    ~input_bits:(Array.length p.collection.Covering.sets)
    ~x:(Covering.cheap_when_set (Ix.s p)) ~y:(Covering.cheap_when_set (Ix.s_bar p))
    ~objective:(Framework.Of_graph (fun g -> fst (Ch_solvers.Domset.min_weight_set g)))
    ~goal:(Framework.At_most 2) ~f:Commfn.intersecting

let gap_holds p = Framework.gap_holds (family p) ~no:(Covering.beyond_r p.collection)

(* Fixed topology, weights-only inputs — the same split as Kmds_lb. *)
let incremental p =
  let fam = family p in
  Framework.incremental fam (fun ~patch ->
      let dc = Ch_solvers.Cache.domset_prepare (Framework.graph_of (Framework.core fam)) ~radius:1 in
      {
        Framework.verdict =
          (fun x y ->
            let balls = Ch_solvers.Cache.domset_balls dc ~extra:[] in
            Ch_solvers.Domset.exists_within ~balls (Framework.graph_of (patch x y)) ~bound:2);
        stats = (fun () -> Ch_solvers.Cache.domset_stats dc);
      })

let registry_params k =
  let ell, t_count =
    if k <= 2 then (6, 6) else if k <= 4 then (8, 10) else (10, 20)
  in
  make_params ~seed:1 ~ell ~t_count ~r:2 ()

let specs =
  [
    Registry.spec ~id:"mds-restricted" ~title:"restricted weighted MDS log-approx"
      ~paper_ref:"Thm 4.8, Fig 7" ~origin:"Mds_restricted_lb" ~default_k:2 ~sweep_ks:[ 2 ]
      ~incremental:(fun k -> incremental (registry_params k))
      (fun k -> family (registry_params k));
  ]
