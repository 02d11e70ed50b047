open Ch_graph
open Ch_cc
open Ch_core

module Ix = struct
  let row ~k s i =
    assert (i >= 0 && i < k);
    (Mds_lb.set_index s * k) + i

  let gadget_base ~k s = (4 * k) + (Mds_lb.set_index s * 2 * Bitgadget.log2 k)

  let f ~k s h = gadget_base ~k s + h

  let t ~k s h = gadget_base ~k s + Bitgadget.log2 k + h

  let n ~k =
    let tbits = Bitgadget.check_k "Maxis_lb" k in
    (4 * k) + (8 * tbits)
end

let alpha_target ~k = (4 * Bitgadget.log2 k) + 4

let core_graph ~k =
  let tbits = Bitgadget.check_k "Maxis_lb.core_graph" k in
  let g = Graph.create (Ix.n ~k) in
  (* row cliques *)
  List.iter
    (fun s ->
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          Graph.add_edge g (Ix.row ~k s i) (Ix.row ~k s j)
        done
      done)
    [ Mds_lb.A1; Mds_lb.A2; Mds_lb.B1; Mds_lb.B2 ];
  (* bit gadgets: intra pairs and equality cross edges *)
  List.iter
    (fun (sa, sb) ->
      for h = 0 to tbits - 1 do
        Graph.add_edge g (Ix.f ~k sa h) (Ix.t ~k sa h);
        Graph.add_edge g (Ix.f ~k sb h) (Ix.t ~k sb h);
        Graph.add_edge g (Ix.f ~k sa h) (Ix.t ~k sb h);
        Graph.add_edge g (Ix.t ~k sa h) (Ix.f ~k sb h)
      done)
    [ (Mds_lb.A1, Mds_lb.B1); (Mds_lb.A2, Mds_lb.B2) ];
  (* each row vertex conflicts with the gadget values contradicting it *)
  List.iter
    (fun s ->
      for i = 0 to k - 1 do
        for h = 0 to tbits - 1 do
          let conflict =
            if Bitgadget.bit i h then Ix.f ~k s h else Ix.t ~k s h
          in
          Graph.add_edge g (Ix.row ~k s i) conflict
        done
      done)
    [ Mds_lb.A1; Mds_lb.A2; Mds_lb.B1; Mds_lb.B2 ];
  g

(* inputs: bit (i, j) adds the edge (s₁^i, s₂^j) when it is 0 *)
let row_bits ~k s1 s2 b =
  {
    Framework.at0 = [ Framework.Edge (Ix.row ~k s1 (b / k), Ix.row ~k s2 (b mod k), 1) ];
    at1 = [];
  }

let side ~k =
  let side = Array.make (Ix.n ~k) false in
  List.iter
    (fun s ->
      for i = 0 to k - 1 do
        side.(Ix.row ~k s i) <- true
      done;
      for h = 0 to Bitgadget.log2 k - 1 do
        side.(Ix.f ~k s h) <- true;
        side.(Ix.t ~k s h) <- true
      done)
    [ Mds_lb.A1; Mds_lb.A2 ];
  side

let family ~k =
  Framework.family ~name:"maxis-exact ([10] reimplementation)" ~params:[ ("k", k) ]
    ~side:(side ~k) ~core:(fun () -> Framework.Undirected (core_graph ~k))
    ~input_bits:(k * k)
    ~x:(row_bits ~k Mds_lb.A1 Mds_lb.A2) ~y:(row_bits ~k Mds_lb.B1 Mds_lb.B2)
    ~objective:(Framework.Of_graph Ch_solvers.Mis.alpha)
    ~goal:(Framework.At_least (alpha_target ~k)) ~f:Commfn.intersecting

let incremental ~k =
  let fam = family ~k and target = alpha_target ~k in
  Framework.incremental fam (fun ~patch:_ ->
      (* conditioned α table of the core over the rows *)
      let mc =
        Ch_solvers.Cache.mis_prepare (Framework.graph_of (Framework.core fam))
          ~volatile:(Framework.volatile fam)
      in
      {
        Framework.verdict =
          (fun x y -> Ch_solvers.Cache.mis_alpha mc ~extra:(Framework.edges fam x y) >= target);
        stats = (fun () -> Ch_solvers.Cache.mis_stats mc);
      })

let mvc_family ~k =
  {
    (family ~k) with
    Framework.name = "mvc-exact ([10] reimplementation)";
    objective = Framework.Of_graph Ch_solvers.Mis.min_vertex_cover_size;
    goal = Framework.At_most (Ix.n ~k - alpha_target ~k);
  }

let specs =
  [
    Registry.spec ~id:"maxis" ~title:"exact MaxIS" ~paper_ref:"Sec 2 ([10] reimplementation)"
      ~origin:"Maxis_lb" ~default_k:2 ~sweep_ks:[ 2; 4 ] ~incremental:(fun k -> incremental ~k)
      (fun k -> family ~k);
    Registry.spec ~id:"mvc" ~title:"exact MVC (MaxIS complement)"
      ~paper_ref:"Sec 2 ([10] reimplementation)" ~origin:"Maxis_lb" ~default_k:2 ~sweep_ks:[ 2 ]
      (fun k -> mvc_family ~k);
  ]
