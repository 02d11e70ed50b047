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

  let specials_base ~k = (4 * k) + (8 * Bitgadget.log2 k)

  let ca ~k = specials_base ~k

  let ca_bar ~k = specials_base ~k + 1

  let cb ~k = specials_base ~k + 2

  let na ~k = specials_base ~k + 3

  let nb ~k = specials_base ~k + 4

  let n ~k =
    let _ = Bitgadget.check_k "Maxcut_lb" k in
    specials_base ~k + 5
end

let target_weight ~k =
  let t = Bitgadget.log2 k in
  let k2 = k * k in
  let k3 = k2 * k in
  let k4 = k3 * k in
  (k4 * ((8 * t) + 4)) + (k3 * ((12 * t) - 4)) + (4 * k2) + (4 * k)

let core_graph ~k =
  let tbits = Bitgadget.check_k "Maxcut_lb.core_graph" k in
  let g = Graph.create (Ix.n ~k) in
  let k2 = k * k in
  let k4 = k2 * k2 in
  let heavy = k4 in
  let bin_w = 2 * k2 in
  let center_w = (2 * k2 * tbits) - k2 in
  let edge w u v = Graph.add_edge ~w g u v in
  (* the k^4 skeleton *)
  edge heavy (Ix.ca ~k) (Ix.na ~k);
  edge heavy (Ix.cb ~k) (Ix.nb ~k);
  edge heavy (Ix.ca ~k) (Ix.ca_bar ~k);
  edge heavy (Ix.ca_bar ~k) (Ix.cb ~k);
  List.iter
    (fun (sa, sb) ->
      for h = 0 to tbits - 1 do
        let t_a = Ix.t ~k sa h
        and f_a = Ix.f ~k sa h
        and t_b = Ix.t ~k sb h
        and f_b = Ix.f ~k sb h in
        (* 4-cycle (t_A, f_A, t_B, f_B) *)
        edge heavy t_a f_a;
        edge heavy f_a t_b;
        edge heavy t_b f_b;
        edge heavy f_b t_a
      done)
    [ (Mds_lb.A1, Mds_lb.B1); (Mds_lb.A2, Mds_lb.B2) ];
  (* rows to their bit gadgets and to the C centers *)
  List.iter
    (fun (s, center) ->
      for j = 0 to k - 1 do
        let v = Ix.row ~k s j in
        for h = 0 to tbits - 1 do
          let target = if Bitgadget.bit j h then Ix.t ~k s h else Ix.f ~k s h in
          edge bin_w v target
        done;
        edge center_w v center
      done)
    [
      (Mds_lb.A1, Ix.ca ~k);
      (Mds_lb.A2, Ix.ca ~k);
      (Mds_lb.B1, Ix.cb ~k);
      (Mds_lb.B2, Ix.cb ~k);
    ];
  (* the N budget edges, at weight 0 until the set bits add theirs *)
  for i = 0 to k - 1 do
    edge 0 (Ix.row ~k Mds_lb.A1 i) (Ix.na ~k);
    edge 0 (Ix.row ~k Mds_lb.A2 i) (Ix.na ~k);
    edge 0 (Ix.row ~k Mds_lb.B1 i) (Ix.nb ~k);
    edge 0 (Ix.row ~k Mds_lb.B2 i) (Ix.nb ~k)
  done;
  g

(* bit (i, j) of a player: the complement edge (s₁^i, s₂^j) of weight 1
   when it is 0, one unit on the budget edges (s₁^i, N) and (s₂^j, N)
   when it is 1 — so every row vertex's weight into (row₂ ∪ N) stays
   exactly k *)
let row_bits ~k s1 s2 n b =
  let u = Ix.row ~k s1 (b / k) and v = Ix.row ~k s2 (b mod k) in
  {
    Framework.at0 = [ Framework.Edge (u, v, 1) ];
    at1 = [ Framework.Weight (u, n, 1); Framework.Weight (v, n, 1) ];
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
  side.(Ix.ca ~k) <- true;
  side.(Ix.ca_bar ~k) <- true;
  side.(Ix.na ~k) <- true;
  side

let family ~k =
  Framework.family ~name:"weighted-max-cut (Thm 2.8)" ~params:[ ("k", k) ] ~side:(side ~k)
    ~core:(fun () -> Framework.Undirected (core_graph ~k)) ~input_bits:(k * k)
    ~x:(row_bits ~k Mds_lb.A1 Mds_lb.A2 (Ix.na ~k))
    ~y:(row_bits ~k Mds_lb.B1 Mds_lb.B2 (Ix.nb ~k))
    ~objective:(Framework.Of_graph (fun g -> fst (Ch_solvers.Maxcut.max_cut g)))
    ~goal:(Framework.At_least (target_weight ~k)) ~f:Commfn.intersecting

let incremental ~k =
  let fam = family ~k and target = target_weight ~k in
  Framework.incremental fam (fun ~patch:_ ->
      (* n ≤ 30 — so k = 2 only, exactly like the scratch solver *)
      let mc =
        Ch_solvers.Cache.maxcut_prepare (Framework.graph_of (Framework.core fam))
          ~volatile:(Framework.volatile fam)
      in
      {
        Framework.verdict =
          (fun x y ->
            Ch_solvers.Cache.maxcut_max ~stop_at:target mc
              ~extra:(Framework.weighted_edges fam x y)
            >= target);
        stats = (fun () -> Ch_solvers.Cache.maxcut_stats mc);
      })

let specs =
  [
    Registry.spec ~id:"maxcut" ~title:"weighted max cut" ~paper_ref:"Thm 2.8, Fig 3"
      ~origin:"Maxcut_lb" ~default_k:2 ~sweep_ks:[ 2; 4 ] ~incremental:(fun k -> incremental ~k)
      (fun k -> family ~k);
  ]
