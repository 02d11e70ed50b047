open Ch_graph
open Ch_cc
open Ch_core

(* The first genuinely multiparty workload: a set-intersection family
   with a logarithmic two-party cut, built from one bit gadget per bit
   position (arXiv:1901.01630 uses the same gadget to keep cuts small).

   Layout for k a power of two, t = log₂ k:
   - k row vertices a_0..a_{k-1} (Alice) and b_0..b_{k-1} (Bob);
   - per bit position h a 6-cycle
       fA_h – tA_h – uA_h – fB_h – tB_h – uB_h – fA_h
     whose only side-crossing edges are uA_h–fB_h and uB_h–fA_h — the
     2t-edge (logarithmic) two-party cut;
   - code edges a_i – (bit h of i ? tA_h : fA_h) for every h, and
     symmetrically for b_j: a row is wired to its binary code;
   - pool vertices pA ~ { a_i : x_i = 1 } and pB ~ { b_j : y_j = 1 } —
     the only input-dependent edges, strictly inside a side.

   γ(G_{x,y}) ≤ 2t + 2 iff x ∩ y ≠ ∅: an index i in the intersection
   buys {a_i, b_i} plus the aligned gadget picks (per h both sides take
   f when bit h of i is set, both take t otherwise), which dominate the
   pools, every row (any per-h choice covers all rows except the one
   whose code is its complement — a_i and b_i themselves) and every
   6-cycle (aligned picks {f, f} or {t, t} dominate the cycle; mixed
   picks strand a u vertex).  Disjoint nonzero inputs force misaligned
   picks or undominated rows and cost ≥ 2t + 3; a zero input isolates
   its pool (the instance leaves the connected-network model, and the
   verdict stays "no"). *)

module Ix = struct
  let n ~k =
    let t = Bitgadget.check_k "Bitgadget_lb" k in
    (2 * k) + (6 * t) + 2

  let a ~k:_ i = i

  let b ~k i = k + i

  (* per side: a block of 3·log k gadget vertices, F then T then U *)
  let gadget_base ~k ~alice =
    (2 * k) + if alice then 0 else 3 * Bitgadget.log2 k

  let f ~k ~alice h = gadget_base ~k ~alice + h

  let t ~k ~alice h = gadget_base ~k ~alice + Bitgadget.log2 k + h

  let u ~k ~alice h = gadget_base ~k ~alice + (2 * Bitgadget.log2 k) + h

  let pa ~k = (2 * k) + (6 * Bitgadget.log2 k)

  let pb ~k = pa ~k + 1
end

let target_size ~k = (2 * Bitgadget.log2 k) + 2

(* the fixed core: everything but the input-dependent pool edges *)
let core_graph ~k =
  let tbits = Bitgadget.check_k "Bitgadget_lb.core_graph" k in
  let g = Graph.create (Ix.n ~k) in
  for h = 0 to tbits - 1 do
    let f_a = Ix.f ~k ~alice:true h
    and t_a = Ix.t ~k ~alice:true h
    and u_a = Ix.u ~k ~alice:true h
    and f_b = Ix.f ~k ~alice:false h
    and t_b = Ix.t ~k ~alice:false h
    and u_b = Ix.u ~k ~alice:false h in
    List.iter
      (fun (p, q) -> Graph.add_edge g p q)
      [ (f_a, t_a); (t_a, u_a); (u_a, f_b); (f_b, t_b); (t_b, u_b); (u_b, f_a) ]
  done;
  List.iter
    (fun alice ->
      for i = 0 to k - 1 do
        let row = if alice then Ix.a ~k i else Ix.b ~k i in
        for h = 0 to tbits - 1 do
          let target =
            if Bitgadget.bit i h then Ix.t ~k ~alice h else Ix.f ~k ~alice h
          in
          Graph.add_edge g row target
        done
      done)
    [ true; false ];
  g

(* bit i of a player wires its pool vertex to its row i when set *)
let pool_bits pool row i =
  { Framework.at0 = []; at1 = [ Framework.Edge (pool, row i, 1) ] }

let side ~k =
  let n = Ix.n ~k in
  let side = Array.make n false in
  for i = 0 to k - 1 do
    side.(Ix.a ~k i) <- true
  done;
  for h = 0 to Bitgadget.log2 k - 1 do
    side.(Ix.f ~k ~alice:true h) <- true;
    side.(Ix.t ~k ~alice:true h) <- true;
    side.(Ix.u ~k ~alice:true h) <- true
  done;
  side.(Ix.pa ~k) <- true;
  side

(* The 4-party refinement of the Alice/Bob split: rows+pool | gadgets on
   each side.  Every pool edge stays inside part 0 or 3, so the multicut
   (row-to-gadget code edges plus the 2t cycle crossings, 2kt + 2t edges)
   is input independent — the multiparty analogue of Definition 1.1. *)
let partition ~k =
  let n = Ix.n ~k in
  let p = Array.make n 3 in
  for i = 0 to k - 1 do
    p.(Ix.a ~k i) <- 0
  done;
  for h = 0 to Bitgadget.log2 k - 1 do
    p.(Ix.f ~k ~alice:true h) <- 1;
    p.(Ix.t ~k ~alice:true h) <- 1;
    p.(Ix.u ~k ~alice:true h) <- 1;
    p.(Ix.f ~k ~alice:false h) <- 2;
    p.(Ix.t ~k ~alice:false h) <- 2;
    p.(Ix.u ~k ~alice:false h) <- 2
  done;
  p.(Ix.pa ~k) <- 0;
  p

let family ~k =
  Framework.family ~name:"bit-gadget intersection" ~params:[ ("k", k) ] ~side:(side ~k)
    ~core:(fun () -> Framework.Undirected (core_graph ~k)) ~input_bits:k
    ~x:(pool_bits (Ix.pa ~k) (Ix.a ~k)) ~y:(pool_bits (Ix.pb ~k) (Ix.b ~k))
    ~objective:(Framework.Of_graph Ch_solvers.Domset.min_size)
    ~goal:(Framework.At_most (target_size ~k)) ~f:Commfn.intersecting

let incremental ~k =
  let fam = family ~k and target = target_size ~k in
  Framework.incremental fam (fun ~patch ->
      let dc = Ch_solvers.Cache.domset_prepare (Framework.graph_of (Framework.core fam)) ~radius:1 in
      {
        Framework.verdict =
          (fun x y ->
            let balls = Ch_solvers.Cache.domset_balls dc ~extra:(Framework.edges fam x y) in
            Ch_solvers.Domset.exists_of_size ~balls (Framework.graph_of (patch x y)) target);
        stats = (fun () -> Ch_solvers.Cache.domset_stats dc);
      })

let specs =
  [
    Registry.spec ~id:"bitgadget" ~title:"bit-gadget intersection (t=4)"
      ~paper_ref:"Sec 2 bit gadgets; arXiv:1901.01630" ~origin:"Bitgadget_lb" ~default_k:4
      ~sweep_ks:[ 2; 4 ] ~incremental:(fun k -> incremental ~k)
      ~partition:(fun k -> partition ~k) (fun k -> family ~k);
  ]
