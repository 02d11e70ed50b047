open Ch_graph
open Ch_cc
open Ch_core
open Ch_congest

module Ix = struct
  let start = 0

  let end_ = 1

  let s11 = 2

  let s21 = 3

  let s12 = 4

  let s22 = 5

  let base_rows = 6

  let row ~k s i =
    assert (i >= 0 && i < k);
    base_rows + (Mds_lb.set_index s * k) + i

  let base_boxes ~k = base_rows + (4 * k)

  let box_size ~k = 2 + (6 * k)

  let boxes ~k = 2 * Bitgadget.log2 k

  let n ~k = base_boxes ~k + (boxes ~k * box_size ~k)

  let g ~k c = base_boxes ~k + (c * box_size ~k)

  let r ~k c = g ~k c + 1

  let lane_offset ~k ~d ~q = 2 + (if q then 0 else 3 * k) + (3 * d)

  let launch ~k ~c ~d ~q = g ~k c + lane_offset ~k ~d ~q

  let skip ~k ~c ~d ~q = launch ~k ~c ~d ~q + 1

  let burn ~k ~c ~d ~q = launch ~k ~c ~d ~q + 2

  let wheel ~k ~c ~d ~q =
    let t = Bitgadget.log2 k in
    let h = if c < t then c else c - t in
    let indices = Bitgadget.indices_with_bit ~k ~h ~value:q in
    let half = k / 2 in
    let pick d = List.nth indices d in
    if c < t then
      if d < half then row ~k Mds_lb.A1 (pick d)
      else row ~k Mds_lb.B1 (pick (d - half))
    else if d < half then row ~k Mds_lb.A2 (pick d)
    else row ~k Mds_lb.B2 (pick (d - half))
end

(* forward target of lane (c, d, q) *)
let forward_target ~k ~c ~d ~q =
  let last_box = Ix.boxes ~k - 1 in
  if d <> k - 1 then Ix.launch ~k ~c ~d:(d + 1) ~q
  else if c <> last_box then Ix.g ~k (c + 1)
  else Ix.r ~k last_box

(* backward target of burn (c, d, q) *)
let backward_target ~k ~c ~d ~q =
  if d <> 0 then Ix.launch ~k ~c ~d:(d - 1) ~q
  else if c <> 0 then Ix.r ~k (c - 1)
  else Ix.s11

(* the fixed part of the Theorem 2.2 digraph: everything but the
   input-dependent row-to-row arcs *)
let core_digraph ~k =
  let _ = Bitgadget.check_k "Hampath_lb.core_digraph" k in
  let dg = Digraph.create (Ix.n ~k) in
  let arc u v = Digraph.add_arc dg u v in
  arc Ix.start (Ix.g ~k 0);
  for i = 0 to k - 1 do
    arc Ix.s11 (Ix.row ~k Mds_lb.A1 i);
    arc (Ix.row ~k Mds_lb.A2 i) Ix.s21;
    arc Ix.s12 (Ix.row ~k Mds_lb.B1 i);
    arc (Ix.row ~k Mds_lb.B2 i) Ix.s22
  done;
  arc Ix.s21 Ix.s12;
  arc Ix.s22 Ix.end_;
  for c = 0 to Ix.boxes ~k - 1 do
    List.iter
      (fun q ->
        arc (Ix.g ~k c) (Ix.launch ~k ~c ~d:0 ~q);
        arc (Ix.r ~k c) (Ix.launch ~k ~c ~d:(k - 1) ~q);
        for d = 0 to k - 1 do
          let launch = Ix.launch ~k ~c ~d ~q in
          let skip = Ix.skip ~k ~c ~d ~q in
          let burn = Ix.burn ~k ~c ~d ~q in
          let wheel = Ix.wheel ~k ~c ~d ~q in
          arc launch skip;
          arc launch wheel;
          arc wheel burn;
          arc skip burn;
          arc burn skip;
          let fwd = forward_target ~k ~c ~d ~q in
          arc skip fwd;
          arc burn fwd;
          arc burn (backward_target ~k ~c ~d ~q)
        done)
      [ true; false ]
  done;
  dg

(* bit (i, j) of a player adds the arc (s₁^i, s₂^j) when set *)
let row_bits ~k s1 s2 b =
  {
    Framework.at0 = [];
    at1 = [ Framework.Edge (Ix.row ~k s1 (b / k), Ix.row ~k s2 (b mod k), 1) ];
  }

let witness_path ~k x y ~i ~j =
  let t = Bitgadget.check_k "Hampath_lb.witness_path" k in
  if not (Bits.get_pair ~k x i j && Bits.get_pair ~k y i j) then
    invalid_arg "Hampath_lb.witness_path: (i,j) must intersect";
  let boxes = 2 * t in
  (* lane choice per box: the f-lane when the encoded bit is 1 *)
  let chosen c =
    let bit = if c < t then Bitgadget.bit i c else Bitgadget.bit j (c - t) in
    not bit
  in
  let visited = Hashtbl.create 256 in
  let path = ref [] in
  let visit v =
    path := v :: !path;
    Hashtbl.replace visited v ()
  in
  visit Ix.start;
  (* forward phase *)
  for c = 0 to boxes - 1 do
    visit (Ix.g ~k c);
    let q = chosen c in
    for d = 0 to k - 1 do
      let wheel = Ix.wheel ~k ~c ~d ~q in
      visit (Ix.launch ~k ~c ~d ~q);
      if Hashtbl.mem visited wheel then begin
        (* beta-forward-step: launch, skip, burn *)
        visit (Ix.skip ~k ~c ~d ~q);
        visit (Ix.burn ~k ~c ~d ~q)
      end
      else begin
        (* wheel-forward-step: launch, wheel, burn, skip *)
        visit wheel;
        visit (Ix.burn ~k ~c ~d ~q);
        visit (Ix.skip ~k ~c ~d ~q)
      end
    done
  done;
  (* backward phase along the opposite lanes *)
  visit (Ix.r ~k (boxes - 1));
  for c = boxes - 1 downto 0 do
    let q = not (chosen c) in
    for d = k - 1 downto 0 do
      visit (Ix.launch ~k ~c ~d ~q);
      visit (Ix.skip ~k ~c ~d ~q);
      visit (Ix.burn ~k ~c ~d ~q)
    done;
    if c > 0 then visit (Ix.r ~k (c - 1))
  done;
  (* the suffix through the four untouched row vertices *)
  visit Ix.s11;
  visit (Ix.row ~k Mds_lb.A1 i);
  visit (Ix.row ~k Mds_lb.A2 j);
  visit Ix.s21;
  visit Ix.s12;
  visit (Ix.row ~k Mds_lb.B1 i);
  visit (Ix.row ~k Mds_lb.B2 j);
  visit Ix.s22;
  visit Ix.end_;
  List.rev !path

let side ~k =
  let n = Ix.n ~k in
  let side = Array.make n false in
  side.(Ix.start) <- true;
  side.(Ix.s11) <- true;
  side.(Ix.s21) <- true;
  for i = 0 to k - 1 do
    side.(Ix.row ~k Mds_lb.A1 i) <- true;
    side.(Ix.row ~k Mds_lb.A2 i) <- true
  done;
  for c = 0 to Ix.boxes ~k - 1 do
    side.(Ix.g ~k c) <- true;
    List.iter
      (fun q ->
        for d = 0 to (k / 2) - 1 do
          side.(Ix.launch ~k ~c ~d ~q) <- true;
          side.(Ix.skip ~k ~c ~d ~q) <- true;
          side.(Ix.burn ~k ~c ~d ~q) <- true
        done)
      [ true; false ]
  done;
  side

(* Every Hamiltonian objective is an indicator: 1 when the exact search
   finds a path (or cycle), and P asks for at least 1. *)
let found o = Bool.to_int (Option.is_some o)

let hamiltonian = Framework.At_least 1

let path_family ~k =
  Framework.family ~name:"directed-hamiltonian-path (Thm 2.2)" ~params:[ ("k", k) ]
    ~side:(side ~k) ~core:(fun () -> Framework.Directed (core_digraph ~k))
    ~input_bits:(k * k)
    ~x:(row_bits ~k Mds_lb.A1 Mds_lb.A2) ~y:(row_bits ~k Mds_lb.B1 Mds_lb.B2)
    ~objective:(Framework.Of_digraph (fun dg -> found (Ch_solvers.Hamilton.directed_path dg)))
    ~goal:hamiltonian ~f:Commfn.intersecting

let incremental ~k =
  let fam = path_family ~k in
  Framework.incremental fam (fun ~patch:_ ->
      (* the pattern table of the core, over every arc an input may add *)
      let hp =
        match Framework.core fam with
        | Framework.Directed dg ->
            Ch_solvers.Cache.hampath_prepare dg ~candidates:(Framework.candidates fam)
        | _ -> assert false
      in
      {
        Framework.verdict =
          (fun x y ->
            Ch_solvers.Cache.hampath_directed_path hp ~extra:(Framework.edges fam x y) <> None);
        stats = (fun () -> Ch_solvers.Cache.hampath_stats hp);
      })

(* the arcs and edges of the transforms below are all unit-weight *)
let edge_only what = function
  | Framework.Edge (u, v, _) -> (u, v)
  | _ -> invalid_arg (what ^ ": edge elements only")

(* Theorem 2.3: add middle with arcs end -> middle -> start *)
let cycle_family ~k =
  let base = path_family ~k in
  Framework.reduce ~name:"directed-hamiltonian-cycle (Thm 2.3)"
    ~transform:(fun inst ->
      match inst with
      | Framework.Directed dg ->
          let n = Digraph.n dg in
          let dg' = Digraph.create (n + 1) in
          Digraph.iter_arcs (fun u v w -> Digraph.add_arc ~w dg' u v) dg;
          Digraph.add_arc dg' Ix.end_ n;
          Digraph.add_arc dg' n Ix.start;
          Framework.Directed dg'
      | _ -> invalid_arg "expected directed")
    ~element:(fun e -> [ e ])
    ~side:(Array.append base.Framework.side [| true |])
    ~objective:(Framework.Of_digraph (fun dg -> found (Ch_solvers.Hamilton.directed_cycle dg)))
    ~goal:hamiltonian base

(* Theorem 2.4 via Lemma 2.2: v -> (v_in, v_mid, v_out), an arc (u, v)
   becomes the edge (u_out, v_in) *)
let undirected_cycle_family ~k =
  let base = cycle_family ~k in
  Framework.reduce ~name:"undirected-hamiltonian-cycle (Thm 2.4)"
    ~transform:(fun inst ->
      match inst with
      | Framework.Directed dg ->
          Framework.Undirected (Transform.directed_to_undirected_hc dg)
      | _ -> invalid_arg "expected directed")
    ~element:(fun e ->
      let u, v = edge_only "Lemma 2.2" e in
      [ Framework.Edge ((3 * u) + 2, 3 * v, 1) ])
    ~side:(Array.concat (Array.to_list (Array.map (fun s -> [| s; s; s |]) base.Framework.side)))
    ~objective:
      (* decided through the Lemma 2.2 equivalence (tested on random
         digraphs): searching the 3n-vertex instance directly is
         needlessly slow *)
      (Framework.Of_graph
         (fun g -> found (Ch_solvers.Hamilton.directed_cycle (Transform.undirected_to_directed_hc g))))
    ~goal:hamiltonian base

(* Theorem 2.4 via Lemma 2.3 on top: split vertex 0 into 0 and v₂ = n,
   so an edge at 0 gets a twin at v₂, and add s, t *)
let undirected_path_family ~k =
  let base = undirected_cycle_family ~k in
  let n = base.Framework.nvertices in
  Framework.reduce ~name:"undirected-hamiltonian-path (Thm 2.4)"
    ~transform:(fun inst ->
      match inst with
      | Framework.Undirected g -> Framework.Undirected (fst (Transform.hc_to_hp g))
      | _ -> invalid_arg "expected undirected")
    ~element:(fun e ->
      let u, v = edge_only "Lemma 2.3" e in
      (Framework.Edge (u, v, 1) :: (if u = 0 then [ Framework.Edge (n, v, 1) ] else []))
      @ if v = 0 then [ Framework.Edge (n, u, 1) ] else [])
    ~side:(Array.append base.Framework.side [| true; true; true |])
    ~objective:
      (* Lemma 2.3 then Lemma 2.2 equivalences, both tested on random
         instances *)
      (Framework.Of_graph
         (fun g ->
           found
             (Ch_solvers.Hamilton.directed_cycle
                (Transform.undirected_to_directed_hc (Transform.hp_to_hc g)))))
    ~goal:hamiltonian base

(* Theorem 2.5 via Claim 2.7: the 2-ECSS predicate "has a 2-edge-connected
   spanning subgraph with exactly n edges" is equivalent to Hamiltonicity
   (verified independently in the test suite), so the undirected-cycle
   objective and goal decide it exactly. *)
let ecss_family ~k = { (undirected_cycle_family ~k) with Framework.name = "min-2ecss (Thm 2.5)" }

let specs =
  let spec ~id ~title ~paper_ref ?incremental ~sweep_ks family =
    Registry.spec ~id ~title ~paper_ref ~origin:"Hampath_lb" ~default_k:2 ~sweep_ks ?incremental
      (fun k -> family ~k)
  in
  [
    spec ~id:"hampath" ~title:"directed Hamiltonian path" ~paper_ref:"Thm 2.2, Fig 2"
      ~incremental:(fun k -> incremental ~k) ~sweep_ks:[ 2; 4 ] path_family;
    spec ~id:"hamcycle" ~title:"directed Hamiltonian cycle" ~paper_ref:"Thm 2.3" ~sweep_ks:[ 2 ]
      cycle_family;
    spec ~id:"hamcycle-undirected" ~title:"undirected Hamiltonian cycle"
      ~paper_ref:"Thm 2.4 (Lemma 2.2)" ~sweep_ks:[ 2 ] undirected_cycle_family;
    spec ~id:"hampath-undirected" ~title:"undirected Hamiltonian path"
      ~paper_ref:"Thm 2.4 (Lemma 2.3)" ~sweep_ks:[ 2 ] undirected_path_family;
    spec ~id:"2ecss" ~title:"minimum 2-ECSS" ~paper_ref:"Thm 2.5 (Claim 2.7)" ~sweep_ks:[ 2 ]
      ecss_family;
  ]
