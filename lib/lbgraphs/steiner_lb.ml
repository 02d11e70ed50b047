open Ch_graph
open Ch_cc
open Ch_core

let target_edges ~k = (4 * k) + (16 * Bitgadget.log2 k) + 1

let terminals ~k = List.init (Mds_lb.Ix.n ~k) Fun.id

(* The Theorem 2.6 transform is edge-local in the base graph: each base
   edge {u,v} contributes exactly (ũ,v) and (ṽ,u), everything else
   (identity edges, copy cliques, crossing edges) is base-edge
   independent.  So transform(core) + mapped input edges =
   transform(full base graph) — the fact the incremental path relies
   on. *)
let transform_graph ~k g =
  let n = Graph.n g in
  let side = Mds_lb.side ~k in
  let g' = Graph.create (2 * n) in
  let copy v = n + v in
  Graph.iter_edges
    (fun u v _ ->
      Graph.add_edge g' (copy u) v;
      Graph.add_edge g' (copy v) u)
    g;
  for v = 0 to n - 1 do
    Graph.add_edge g' (copy v) v
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if side.(u) = side.(v) then Graph.add_edge g' (copy u) (copy v)
    done
  done;
  let f0a1 = Mds_lb.Ix.f ~k Mds_lb.A1 0
  and t0a1 = Mds_lb.Ix.t ~k Mds_lb.A1 0
  and f0b1 = Mds_lb.Ix.f ~k Mds_lb.B1 0
  and t0b1 = Mds_lb.Ix.t ~k Mds_lb.B1 0 in
  Graph.add_edge g' (copy f0a1) (copy f0b1);
  Graph.add_edge g' (copy t0a1) (copy t0b1);
  g'

let transform ~k inst =
  let g =
    match inst with
    | Framework.Undirected g -> g
    | _ -> invalid_arg "Steiner_lb: undirected expected"
  in
  Framework.With_terminals (transform_graph ~k g, terminals ~k)

let input_edges ~k x y =
  let n = Mds_lb.Ix.n ~k in
  List.concat_map
    (fun (u, v) -> [ (n + u, v); (n + v, u) ])
    (Mds_lb.input_edges ~k x y)

(* every MDS input edge joins two row vertices, and its transform joins
   a row to a row copy: the 4k rows and their copies are the only
   vertices input edges touch (8k of them) *)
let volatile ~k =
  let n = Mds_lb.Ix.n ~k in
  let rows =
    List.concat_map
      (fun s -> List.init k (fun i -> Mds_lb.Ix.row ~k s i))
      [ Mds_lb.A1; Mds_lb.A2; Mds_lb.B1; Mds_lb.B2 ]
  in
  rows @ List.map (fun v -> n + v) rows

type core = {
  ck : int;
  cg : Graph.t;
  mutable applied : (Bits.t * Bits.t) option;
}

let build_core ~k =
  let _ = Bitgadget.check_k "Steiner_lb.build_core" k in
  { ck = k; cg = transform_graph ~k (Mds_lb.core_graph ~k); applied = None }

let apply_inputs c x y =
  let k = c.ck in
  (match c.applied with
  | Some (px, py) ->
      List.iter (fun (u, v) -> Graph.remove_edge c.cg u v) (input_edges ~k px py)
  | None -> ());
  List.iter (fun (u, v) -> Graph.add_edge c.cg u v) (input_edges ~k x y);
  c.applied <- Some (x, y);
  c.cg

let family ~k =
  let t = Bitgadget.check_k "Steiner_lb" k in
  let base = Mds_lb.family ~k in
  let n = base.Framework.nvertices in
  let side' = Array.append base.Framework.side base.Framework.side in
  let extra_budget = (4 * t) + 2 in
  Framework.reduce ~name:"steiner-tree (Thm 2.7)"
    ~transform:(transform ~k) ~nvertices:(2 * n) ~side:side'
    ~predicate:(fun inst ->
      match inst with
      | Framework.With_terminals (g, terms) -> (
          (* a Steiner tree with target_edges edges = terminals plus
             extra_budget connector copies *)
          match
            Ch_solvers.Steiner.min_extra_nodes ~cap:extra_budget g terms
          with
          | Some extra -> extra <= extra_budget
          | None -> false)
      | _ -> invalid_arg "steiner family: terminals expected")
    base

let incremental ~k =
  let t = Bitgadget.check_k "Steiner_lb.incremental" k in
  let extra_budget = (4 * t) + 2 in
  {
    Framework.scratch = family ~k;
    prepare =
      (fun () ->
        let c = build_core ~k in
        let sc =
          Ch_solvers.Cache.steiner_prepare c.cg ~terminals:(terminals ~k)
            ~volatile:(volatile ~k) ~cap:extra_budget
        in
        {
          Framework.pbuild =
            (fun x y ->
              Framework.With_terminals (apply_inputs c x y, terminals ~k));
          pverdict =
            (fun x y ->
              match
                Ch_solvers.Cache.steiner_min_extra sc
                  ~extra:(input_edges ~k x y)
              with
              | Some extra -> extra <= extra_budget
              | None -> false);
          pstats =
            (fun () ->
              let s = Ch_solvers.Cache.steiner_stats sc in
              {
                Framework.cache_hits = s.Ch_solvers.Cache.hits;
                cache_misses = s.Ch_solvers.Cache.misses;
              });
        });
  }

let specs =
  [
    {
      Registry.id = "steiner";
      title = "Steiner tree (cardinality)";
      paper_ref = "Thm 2.7";
      origin = "Steiner_lb";
      default_k = 2;
      sweep_ks = [ 2; 4 ];
      scratch = (fun k -> family ~k);
      incremental = Some (fun k -> incremental ~k);
      reduction = None;
    };
  ]
