open Ch_graph
open Ch_cc
open Ch_core

type params = { collection : Covering.t; k : int; alpha : int }

let make_params ?(seed = 0) ?(k = 2) ~ell ~t_count ~r () =
  if k < 2 then invalid_arg "Kmds_lb: k >= 2 required";
  let collection = Covering.construct ~seed ~ell ~t_count ~r () in
  { collection; k; alpha = r + 1 }

(* layout: a_0..a_{ℓ-1}; b_0..b_{ℓ-1}; S_0..S_{T-1}; S̄_0..S̄_{T-1};
   a; b; R; then (k-2) internal path vertices per set-element incidence
   (first the S_i–a_j paths, then the S̄_i–b_j paths) *)
module Ix = struct
  let a_elt _p j = j

  let b_elt p j = p.collection.Covering.ell + j

  let s p i = (2 * p.collection.Covering.ell) + i

  let s_bar p i = (2 * p.collection.Covering.ell) + Array.length p.collection.Covering.sets + i

  let hub_a p = (2 * p.collection.Covering.ell) + (2 * Array.length p.collection.Covering.sets)

  let hub_b p = hub_a p + 1

  let root p = hub_a p + 2

  let base_paths p = hub_a p + 3
end

let incidences p =
  (* (set vertex, element vertex, side) pairs needing a path *)
  let ell = p.collection.Covering.ell in
  let t_count = Array.length p.collection.Covering.sets in
  let acc = ref [] in
  for i = 0 to t_count - 1 do
    for j = 0 to ell - 1 do
      if Covering.mem p.collection ~set:i j then
        acc := (Ix.s p i, Ix.a_elt p j, true) :: !acc
    done
  done;
  for i = 0 to t_count - 1 do
    for j = 0 to ell - 1 do
      if not (Covering.mem p.collection ~set:i j) then
        acc := (Ix.s_bar p i, Ix.b_elt p j, false) :: !acc
    done
  done;
  List.rev !acc

let nvertices p =
  Ix.base_paths p + ((p.k - 2) * List.length (incidences p))

let yes_weight = 2

let no_weight_exceeds p = p.collection.Covering.r

(* the fixed topology, every set vertex at the heavy weight α *)
let core_graph p =
  let ell = p.collection.Covering.ell in
  let t_count = Array.length p.collection.Covering.sets in
  let g = Graph.create ~default_vweight:p.alpha (nvertices p) in
  (* the paper gives a and b weight α; only R is free *)
  Graph.set_vweight g (Ix.root p) 0;
  for j = 0 to ell - 1 do
    Graph.add_edge g (Ix.a_elt p j) (Ix.b_elt p j)
  done;
  for i = 0 to t_count - 1 do
    Graph.add_edge g (Ix.hub_a p) (Ix.s p i);
    Graph.add_edge g (Ix.hub_b p) (Ix.s_bar p i)
  done;
  Graph.add_edge g (Ix.root p) (Ix.hub_a p);
  Graph.add_edge g (Ix.root p) (Ix.hub_b p);
  (* set-element incidences as paths of length k-1 *)
  let next = ref (Ix.base_paths p) in
  List.iter
    (fun (set_v, elt_v, _) ->
      if p.k = 2 then Graph.add_edge g set_v elt_v
      else begin
        let internal = List.init (p.k - 2) (fun i -> !next + i) in
        next := !next + (p.k - 2);
        let chain = (set_v :: internal) @ [ elt_v ] in
        let rec link = function
          | u :: (v :: _ as rest) ->
              Graph.add_edge g u v;
              link rest
          | _ -> ()
        in
        link chain
      end)
    (incidences p);
  g

let side p =
  let n = nvertices p in
  let side = Array.make n false in
  let ell = p.collection.Covering.ell in
  let t_count = Array.length p.collection.Covering.sets in
  for j = 0 to ell - 1 do
    side.(Ix.a_elt p j) <- true
  done;
  for i = 0 to t_count - 1 do
    side.(Ix.s p i) <- true
  done;
  side.(Ix.hub_a p) <- true;
  (* internal path vertices inherit the side of their set vertex *)
  let next = ref (Ix.base_paths p) in
  List.iter
    (fun (_, _, alice) ->
      for _ = 1 to p.k - 2 do
        side.(!next) <- alice;
        incr next
      done)
    (incidences p);
  side

let family p =
  Framework.family
    ~name:(Printf.sprintf "%d-mds-log-approx (Thm 4.%d)" p.k (if p.k = 2 then 4 else 5))
    ~params:
      [
        ("ell", p.collection.Covering.ell);
        ("T", Array.length p.collection.Covering.sets);
        ("r", p.collection.Covering.r);
        ("k", p.k);
      ]
    ~side:(side p) ~core:(fun () -> Framework.Undirected (core_graph p))
    ~input_bits:(Array.length p.collection.Covering.sets)
    ~x:(Covering.cheap_when_set (Ix.s p)) ~y:(Covering.cheap_when_set (Ix.s_bar p))
    ~objective:(Framework.Of_graph (fun g -> fst (Ch_solvers.Domset.min_weight_set ~radius:p.k g)))
    ~goal:(Framework.At_most yes_weight) ~f:Commfn.intersecting

let gap_holds p = Framework.gap_holds (family p) ~no:(Covering.beyond_r p.collection)

(* The topology is fixed: inputs only move the S_i / S̄_i vertex weights
   between α and 1, so the radius-k balls of the core serve every pair
   unpatched. *)
let incremental p =
  let fam = family p in
  Framework.incremental fam (fun ~patch ->
      let dc =
        Ch_solvers.Cache.domset_prepare (Framework.graph_of (Framework.core fam)) ~radius:p.k
      in
      {
        Framework.verdict =
          (fun x y ->
            let balls = Ch_solvers.Cache.domset_balls dc ~extra:[] in
            Ch_solvers.Domset.exists_within ~radius:p.k ~balls
              (Framework.graph_of (patch x y)) ~bound:yes_weight);
        stats = (fun () -> Ch_solvers.Cache.domset_stats dc);
      })

(* registry scale: k selects the covering-collection size; the domination
   radius is fixed per id *)
let registry_params ~radius k =
  let ell, t_count =
    if k <= 2 then (6, 6) else if k <= 4 then (8, 10) else (10, 20)
  in
  make_params ~seed:1 ~k:radius ~ell ~t_count ~r:2 ()

let specs =
  let spec ~id ~title ~paper_ref ~radius =
    Registry.spec ~id ~title ~paper_ref ~origin:"Kmds_lb" ~default_k:2 ~sweep_ks:[ 2 ]
      ~incremental:(fun k -> incremental (registry_params ~radius k))
      (fun k -> family (registry_params ~radius k))
  in
  [
    spec ~id:"2mds" ~title:"weighted 2-MDS log-approx" ~paper_ref:"Thm 4.4, Fig 5" ~radius:2;
    spec ~id:"3mds" ~title:"weighted 3-MDS log-approx" ~paper_ref:"Thm 4.5, Fig 5" ~radius:3;
  ]
