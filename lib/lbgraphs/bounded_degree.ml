open Ch_graph
open Ch_sat

type instance = {
  graph : Graph.t;
  side : bool array;
  alpha_target : int;
  m_base : int;
  m_exp : int;
  base_alpha : int;
}

let build ?(seed = 0) ~k x y =
  let fam = Maxis_lb.family ~k in
  let base = Ch_core.Framework.graph_of (Ch_core.Framework.build fam x y) in
  let base_side = fam.Ch_core.Framework.side in
  let phi = Sat_reductions.graph_to_cnf base in
  let e = Sat_reductions.expand ~seed phi in
  let sg = Sat_reductions.cnf_to_graph e.Sat_reductions.cnf in
  let side =
    Array.map
      (fun v -> base_side.(e.Sat_reductions.owner.(v)))
      sg.Sat_reductions.slot_var
  in
  let base_alpha = Ch_solvers.Mis.alpha base in
  {
    graph = sg.Sat_reductions.graph;
    side;
    alpha_target = Maxis_lb.alpha_target ~k + Graph.m base + e.Sat_reductions.m_exp;
    m_base = Graph.m base;
    m_exp = e.Sat_reductions.m_exp;
    base_alpha;
  }

let alpha' inst = inst.base_alpha + inst.m_base + inst.m_exp

let alpha_direct inst = Ch_solvers.Mis.alpha inst.graph

let predicate inst = alpha' inst = inst.alpha_target

let cut_size inst =
  let cut = ref 0 in
  Graph.iter_edges
    (fun u v _ -> if inst.side.(u) <> inst.side.(v) then incr cut)
    inst.graph;
  !cut

let mvc_to_mds g =
  let n = Graph.n g in
  let m = Graph.m g in
  let g' = Graph.create (n + m) in
  Graph.iter_edges (fun u v _ -> Graph.add_edge g' u v) g;
  let next = ref n in
  Graph.iter_edges
    (fun u v _ ->
      Graph.add_edge g' !next u;
      Graph.add_edge g' !next v;
      incr next)
    g;
  g'
