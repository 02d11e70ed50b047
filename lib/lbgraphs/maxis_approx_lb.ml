open Ch_graph
open Ch_cc
open Ch_codes
open Ch_core

type params = { k : int; ell : int; t : int; q : int }

let make_params ?ell ~k () =
  let t = Bitgadget.check_k "Maxis_approx_lb" k in
  let ell = match ell with Some e -> e | None -> max 2 (t * t) in
  let q = Gf.next_prime (ell + t + 1) in
  { k; ell; t; q }

let yes_weight p = (8 * p.ell) + (4 * p.t)

let no_weight p = (7 * p.ell) + (4 * p.t)

let code p = Reed_solomon.create ~len:(p.ell + p.t) ~dim:p.t ~q:p.q

let codewords p = Reed_solomon.injection (code p) p.k

(* ------------------------------------------------------------------ *)
(* Weighted construction (Theorem 4.3)                                *)
(* ------------------------------------------------------------------ *)

(* layout: rows 0..4k-1 (weight ℓ); then per set S a block of (ℓ+t)·q
   gadget vertices (weight 1): (S, j, α) *)
module WIx = struct
  let row p s i =
    assert (i >= 0 && i < p.k);
    (Mds_lb.set_index s * p.k) + i

  let gadget p s j alpha =
    (4 * p.k)
    + (Mds_lb.set_index s * (p.ell + p.t) * p.q)
    + (j * p.q) + alpha

  let n p = (4 * p.k) + (4 * (p.ell + p.t) * p.q)
end

let add_common_structure p g ~row_vertices ~gadget =
  let words = codewords p in
  let sets = [ Mds_lb.A1; Mds_lb.A2; Mds_lb.B1; Mds_lb.B2 ] in
  (* gadget row cliques *)
  List.iter
    (fun s ->
      for j = 0 to p.ell + p.t - 1 do
        for a = 0 to p.q - 1 do
          for b = a + 1 to p.q - 1 do
            Graph.add_edge g (gadget s j a) (gadget s j b)
          done
        done
      done)
    sets;
  (* cross edges minus a perfect matching *)
  List.iter
    (fun (sa, sb) ->
      for j = 0 to p.ell + p.t - 1 do
        for a = 0 to p.q - 1 do
          for b = 0 to p.q - 1 do
            if a <> b then Graph.add_edge g (gadget sa j a) (gadget sb j b)
          done
        done
      done)
    [ (Mds_lb.A1, Mds_lb.B1); (Mds_lb.A2, Mds_lb.B2) ];
  (* row vertices conflict with the gadget vertices contradicting their
     codeword; row_vertices lists the (set, index, vertex ids) present *)
  List.iter
    (fun (s, i, vertices) ->
      let w = words.(i) in
      for j = 0 to p.ell + p.t - 1 do
        for a = 0 to p.q - 1 do
          if a <> w.(j) then
            List.iter (fun v -> Graph.add_edge g v (gadget s j a)) vertices
        done
      done)
    row_vertices

(* everything but the input-dependent row-row edges *)
let weighted_core_graph p =
  let g = Graph.create (WIx.n p) in
  for v = 0 to (4 * p.k) - 1 do
    Graph.set_vweight g v p.ell
  done;
  let sets = [ Mds_lb.A1; Mds_lb.A2; Mds_lb.B1; Mds_lb.B2 ] in
  (* row cliques *)
  List.iter
    (fun s ->
      for i = 0 to p.k - 1 do
        for j = i + 1 to p.k - 1 do
          Graph.add_edge g (WIx.row p s i) (WIx.row p s j)
        done
      done)
    sets;
  let row_vertices =
    List.concat_map
      (fun s -> List.init p.k (fun i -> (s, i, [ WIx.row p s i ])))
      sets
  in
  add_common_structure p g ~row_vertices ~gadget:(WIx.gadget p);
  g

(* bit (i, j) of a player adds the edges between the vertex sets
   [batch s₁ i] and [batch s₂ j] when it is 0 *)
let complement_bits p ~batch s1 s2 b =
  {
    Framework.at0 =
      List.concat_map
        (fun u -> List.map (fun v -> Framework.Edge (u, v, 1)) (batch s2 (b mod p.k)))
        (batch s1 (b / p.k));
    at1 = [];
  }

let weighted_side p =
  let side = Array.make (WIx.n p) false in
  List.iter
    (fun s ->
      for i = 0 to p.k - 1 do
        side.(WIx.row p s i) <- true
      done;
      for j = 0 to p.ell + p.t - 1 do
        for a = 0 to p.q - 1 do
          side.(WIx.gadget p s j a) <- true
        done
      done)
    [ Mds_lb.A1; Mds_lb.A2 ];
  side

let weighted_family p =
  let row s i = [ WIx.row p s i ] in
  Framework.family ~name:"maxis-7/8-approx weighted (Thm 4.3)"
    ~params:[ ("k", p.k); ("ell", p.ell); ("t", p.t); ("q", p.q) ]
    ~side:(weighted_side p) ~core:(fun () -> Framework.Undirected (weighted_core_graph p))
    ~input_bits:(p.k * p.k)
    ~x:(complement_bits p ~batch:row Mds_lb.A1 Mds_lb.A2)
    ~y:(complement_bits p ~batch:row Mds_lb.B1 Mds_lb.B2)
    ~objective:(Framework.Of_graph (fun g -> fst (Ch_solvers.Mis.max_weight_set g)))
    ~goal:(Framework.At_least (yes_weight p)) ~f:Commfn.intersecting

(* Each variant conditions an independent-set table on the vertices its
   inputs touch.  The inputs only add edges among the 4k row vertices
   and every row of a set is already a core clique, so the conditioned
   MWIS table (Cache.mwis) has at most (k+1)^4 entries. *)
let mis_incremental fam ~target ~prepare ~value ~stats =
  Framework.incremental fam (fun ~patch:_ ->
      let c = prepare (Framework.graph_of (Framework.core fam)) ~volatile:(Framework.volatile fam) in
      {
        Framework.verdict = (fun x y -> value c ~extra:(Framework.edges fam x y) >= target);
        stats = (fun () -> stats c);
      })

let weighted_incremental p =
  mis_incremental (weighted_family p) ~target:(yes_weight p)
    ~prepare:Ch_solvers.Cache.mwis_prepare ~value:Ch_solvers.Cache.mwis_weight
    ~stats:Ch_solvers.Cache.mwis_stats

(* ------------------------------------------------------------------ *)
(* Unweighted construction (Theorem 4.1): rows become ℓ-vertex batches *)
(* ------------------------------------------------------------------ *)

module UIx = struct
  let batch p s i xi =
    assert (xi >= 0 && xi < p.ell);
    ((Mds_lb.set_index s * p.k) + i) * p.ell |> fun base -> base + xi

  let gadget p s j alpha =
    (4 * p.k * p.ell)
    + (Mds_lb.set_index s * (p.ell + p.t) * p.q)
    + (j * p.q) + alpha

  let n p = (4 * p.k * p.ell) + (4 * (p.ell + p.t) * p.q)
end

let ubatch p s i = List.init p.ell (fun xi -> UIx.batch p s i xi)

let unweighted_core_graph p =
  let g = Graph.create (UIx.n p) in
  let sets = [ Mds_lb.A1; Mds_lb.A2; Mds_lb.B1; Mds_lb.B2 ] in
  let connect_batches b1 b2 =
    List.iter (fun u -> List.iter (fun v -> Graph.add_edge g u v) b2) b1
  in
  (* row "cliques": complete multipartite between batches of a set *)
  List.iter
    (fun s ->
      for i = 0 to p.k - 1 do
        for j = i + 1 to p.k - 1 do
          connect_batches (ubatch p s i) (ubatch p s j)
        done
      done)
    sets;
  let row_vertices =
    List.concat_map (fun s -> List.init p.k (fun i -> (s, i, ubatch p s i))) sets
  in
  add_common_structure p g ~row_vertices ~gadget:(UIx.gadget p);
  g

let unweighted_side p =
  let side = Array.make (UIx.n p) false in
  List.iter
    (fun s ->
      for i = 0 to p.k - 1 do
        for xi = 0 to p.ell - 1 do
          side.(UIx.batch p s i xi) <- true
        done
      done;
      for j = 0 to p.ell + p.t - 1 do
        for a = 0 to p.q - 1 do
          side.(UIx.gadget p s j a) <- true
        done
      done)
    [ Mds_lb.A1; Mds_lb.A2 ];
  side

let unweighted_family p =
  Framework.family ~name:"maxis-7/8-approx unweighted (Thm 4.1)"
    ~params:[ ("k", p.k); ("ell", p.ell); ("t", p.t); ("q", p.q) ]
    ~side:(unweighted_side p) ~core:(fun () -> Framework.Undirected (unweighted_core_graph p))
    ~input_bits:(p.k * p.k)
    ~x:(complement_bits p ~batch:(ubatch p) Mds_lb.A1 Mds_lb.A2)
    ~y:(complement_bits p ~batch:(ubatch p) Mds_lb.B1 Mds_lb.B2)
    ~objective:(Framework.Of_graph Ch_solvers.Mis.alpha)
    ~goal:(Framework.At_least (yes_weight p)) ~f:Commfn.intersecting

(* The volatile vertices are all 4kℓ batch vertices.  A core-independent
   subset picks vertices of at most one batch per set (batches of a set
   are pairwise fully connected, batches themselves are edge-free), so
   the conditioned table has (1 + k(2^ℓ - 1))^4 entries. *)
let unweighted_incremental p =
  mis_incremental (unweighted_family p) ~target:(yes_weight p)
    ~prepare:Ch_solvers.Cache.mis_prepare ~value:Ch_solvers.Cache.mis_alpha
    ~stats:Ch_solvers.Cache.mis_stats

(* ------------------------------------------------------------------ *)
(* Linear variant (Theorem 4.2): only A₂/B₂ plus batches v_A, v_B      *)
(* ------------------------------------------------------------------ *)

let linear_yes_size p = (6 * p.ell) + (2 * p.t)

(* layout: batch(v_A): 0..ℓ-1; batch(v_B): ℓ..2ℓ-1; then A₂ batches
   (k·ℓ), B₂ batches (k·ℓ); then gadget blocks for A₂ and B₂ *)
module LIx = struct
  let va p xi = assert (xi < p.ell); xi

  let vb p xi = assert (xi < p.ell); p.ell + xi

  let batch p side_b i xi =
    (2 * p.ell) + (((if side_b then p.k else 0) + i) * p.ell) + xi

  let gadget p side_b j alpha =
    (2 * p.ell) + (2 * p.k * p.ell)
    + ((if side_b then (p.ell + p.t) * p.q else 0) + (j * p.q) + alpha)

  let n p = (2 * p.ell) + (2 * p.k * p.ell) + (2 * (p.ell + p.t) * p.q)
end

let lbatch p side_b i = List.init p.ell (fun xi -> LIx.batch p side_b i xi)

let lva p = List.init p.ell (fun xi -> LIx.va p xi)

let lvb p = List.init p.ell (fun xi -> LIx.vb p xi)

let linear_core_graph p =
  let g = Graph.create (LIx.n p) in
  let words = codewords p in
  let batch side_b i = lbatch p side_b i in
  let connect_batches b1 b2 =
    List.iter (fun u -> List.iter (fun v -> Graph.add_edge g u v) b2) b1
  in
  (* the two remaining row sets are "cliques" of batches *)
  List.iter
    (fun side_b ->
      for i = 0 to p.k - 1 do
        for j = i + 1 to p.k - 1 do
          connect_batches (batch side_b i) (batch side_b j)
        done
      done)
    [ false; true ];
  (* gadget rows, cross edges, code conflicts *)
  List.iter
    (fun side_b ->
      for j = 0 to p.ell + p.t - 1 do
        for a = 0 to p.q - 1 do
          for b = a + 1 to p.q - 1 do
            Graph.add_edge g (LIx.gadget p side_b j a) (LIx.gadget p side_b j b)
          done
        done
      done)
    [ false; true ];
  for j = 0 to p.ell + p.t - 1 do
    for a = 0 to p.q - 1 do
      for b = 0 to p.q - 1 do
        if a <> b then
          Graph.add_edge g (LIx.gadget p false j a) (LIx.gadget p true j b)
      done
    done
  done;
  List.iter
    (fun side_b ->
      for i = 0 to p.k - 1 do
        let w = words.(i) in
        for j = 0 to p.ell + p.t - 1 do
          for a = 0 to p.q - 1 do
            if a <> w.(j) then
              List.iter
                (fun v -> Graph.add_edge g v (LIx.gadget p side_b j a))
                (batch side_b i)
          done
        done
      done)
    [ false; true ];
  g

let linear_side p =
  let side = Array.make (LIx.n p) false in
  for xi = 0 to p.ell - 1 do
    side.(LIx.va p xi) <- true
  done;
  for i = 0 to p.k - 1 do
    for xi = 0 to p.ell - 1 do
      side.(LIx.batch p false i xi) <- true
    done
  done;
  for j = 0 to p.ell + p.t - 1 do
    for a = 0 to p.q - 1 do
      side.(LIx.gadget p false j a) <- true
    done
  done;
  side

(* inputs of length k: bit i adds the edges between the player's batch
   (v_A or v_B) and its row batch i when it is 0 *)
let linear_bits p v side_b i =
  {
    Framework.at0 =
      List.concat_map
        (fun u -> List.map (fun w -> Framework.Edge (u, w, 1)) (lbatch p side_b i))
        v;
    at1 = [];
  }

let linear_family p =
  Framework.family ~name:"maxis-5/6-approx (Thm 4.2)"
    ~params:[ ("k", p.k); ("ell", p.ell); ("t", p.t); ("q", p.q) ]
    ~side:(linear_side p) ~core:(fun () -> Framework.Undirected (linear_core_graph p))
    ~input_bits:p.k
    ~x:(linear_bits p (lva p) false) ~y:(linear_bits p (lvb p) true)
    ~objective:(Framework.Of_graph Ch_solvers.Mis.alpha)
    ~goal:(Framework.At_least (linear_yes_size p)) ~f:Commfn.intersecting

(* The volatile vertices are v_A, v_B and the 2kℓ batch vertices.
   v_A/v_B are core-edge-free, each side's batches are pairwise fully
   connected, so the table has (2^ℓ (1 + k(2^ℓ - 1)))^2 entries. *)
let linear_incremental p =
  mis_incremental (linear_family p) ~target:(linear_yes_size p)
    ~prepare:Ch_solvers.Cache.mis_prepare ~value:Ch_solvers.Cache.mis_alpha
    ~stats:Ch_solvers.Cache.mis_stats

(* registry scale: k is the construction k; ell/t/q follow make_params
   defaults (k = 2 gives ell = 2, matching the historical CLI scale) *)
let registry_params k = make_params ~k ()

let specs =
  let spec ~id ~title ~paper_ref ~incremental family =
    Registry.spec ~id ~title ~paper_ref ~origin:"Maxis_approx_lb" ~default_k:2 ~sweep_ks:[ 2 ]
      ~incremental:(fun k -> incremental (registry_params k))
      (fun k -> family (registry_params k))
  in
  [
    spec ~id:"maxis-78-weighted" ~title:"MaxIS 7/8-approx (weighted)" ~paper_ref:"Thm 4.3, Fig 4"
      ~incremental:weighted_incremental weighted_family;
    spec ~id:"maxis-78-unweighted" ~title:"MaxIS 7/8-approx (unweighted)"
      ~paper_ref:"Thm 4.1, Fig 4" ~incremental:unweighted_incremental unweighted_family;
    spec ~id:"maxis-56" ~title:"MaxIS 5/6-approx (linear variant)" ~paper_ref:"Thm 4.2"
      ~incremental:linear_incremental linear_family;
  ]
