open Ch_graph
open Ch_cc
open Ch_core

type set = A1 | A2 | B1 | B2

let set_index = function A1 -> 0 | A2 -> 1 | B1 -> 2 | B2 -> 3

module Ix = struct
  let n ~k =
    let t = Bitgadget.check_k "Mds_lb" k in
    (4 * k) + (12 * t)

  let row ~k s i =
    assert (i >= 0 && i < k);
    (set_index s * k) + i

  (* per set: a block of 3·log k gadget vertices, F then T then U *)
  let gadget_base ~k s = (4 * k) + (set_index s * 3 * Bitgadget.log2 k)

  let f ~k s h = gadget_base ~k s + h

  let t ~k s h = gadget_base ~k s + Bitgadget.log2 k + h

  let u ~k s h = gadget_base ~k s + (2 * Bitgadget.log2 k) + h
end

let target_size ~k = (4 * Bitgadget.log2 k) + 2

(* the fixed gadget core: everything but the input-dependent edges *)
let core_graph ~k =
  let tbits = Bitgadget.check_k "Mds_lb.core_graph" k in
  let g = Graph.create (Ix.n ~k) in
  (* 6-cycles tying the bit gadgets of A_l and B_l together *)
  List.iter
    (fun (sa, sb) ->
      for h = 0 to tbits - 1 do
        let f_a = Ix.f ~k sa h
        and t_a = Ix.t ~k sa h
        and u_a = Ix.u ~k sa h
        and f_b = Ix.f ~k sb h
        and t_b = Ix.t ~k sb h
        and u_b = Ix.u ~k sb h in
        List.iter
          (fun (p, q) -> Graph.add_edge g p q)
          [ (f_a, t_a); (t_a, u_a); (u_a, f_b); (f_b, t_b); (t_b, u_b); (u_b, f_a) ]
      done)
    [ (A1, B1); (A2, B2) ];
  (* rows to bit gadgets by binary representation *)
  List.iter
    (fun s ->
      for i = 0 to k - 1 do
        for h = 0 to tbits - 1 do
          let target = if Bitgadget.bit i h then Ix.t ~k s h else Ix.f ~k s h in
          Graph.add_edge g (Ix.row ~k s i) target
        done
      done)
    [ A1; A2; B1; B2 ];
  g

(* bit (i, j) of a player adds the edge (s₁^i, s₂^j) when set *)
let row_bits ~k s1 s2 b =
  {
    Framework.at0 = [];
    at1 = [ Framework.Edge (Ix.row ~k s1 (b / k), Ix.row ~k s2 (b mod k), 1) ];
  }

let side ~k =
  let n = Ix.n ~k in
  let side = Array.make n false in
  List.iter
    (fun s ->
      for i = 0 to k - 1 do
        side.(Ix.row ~k s i) <- true
      done;
      for h = 0 to Bitgadget.log2 k - 1 do
        side.(Ix.f ~k s h) <- true;
        side.(Ix.t ~k s h) <- true;
        side.(Ix.u ~k s h) <- true
      done)
    [ A1; A2 ];
  side

let family ~k =
  Framework.family ~name:"mds-exact (Thm 2.1)" ~params:[ ("k", k) ] ~side:(side ~k)
    ~core:(fun () -> Framework.Undirected (core_graph ~k)) ~input_bits:(k * k)
    ~x:(row_bits ~k A1 A2) ~y:(row_bits ~k B1 B2)
    ~objective:(Framework.Of_graph Ch_solvers.Domset.min_size)
    ~goal:(Framework.At_most (target_size ~k)) ~f:Commfn.intersecting

let incremental ~k =
  let fam = family ~k and target = target_size ~k in
  Framework.incremental fam (fun ~patch ->
      (* balls of the core, patched per pair by the input edges *)
      let dc = Ch_solvers.Cache.domset_prepare (Framework.graph_of (Framework.core fam)) ~radius:1 in
      {
        Framework.verdict =
          (fun x y ->
            let balls = Ch_solvers.Cache.domset_balls dc ~extra:(Framework.edges fam x y) in
            (* decision-bounded: the incremental sweep only needs the
               ≤ target verdict, not the optimum itself *)
            Ch_solvers.Domset.exists_of_size ~balls (Framework.graph_of (patch x y)) target);
        stats = (fun () -> Ch_solvers.Cache.domset_stats dc);
      })

let specs =
  [
    Registry.spec ~id:"mds" ~title:"exact MDS" ~paper_ref:"Thm 2.1, Fig 1" ~origin:"Mds_lb"
      ~default_k:2 ~sweep_ks:[ 2; 4 ] ~incremental:(fun k -> incremental ~k) (fun k -> family ~k);
  ]
