open Ch_graph
open Ch_cc
module Obs = Ch_obs.Obs

(* Telemetry spans shared by every verification path: [apply_inputs]
   wraps instance construction, [solver] wraps the predicate (scratch or
   prepared), [core_build] wraps per-chunk incremental preparation, and
   [sidedness] wraps Definition 1.1 fingerprint checks.  All no-ops
   unless Obs is enabled. *)
let sp_apply = Obs.span "apply_inputs"
let sp_solver = Obs.span "solver"
let sp_core = Obs.span "core_build"
let sp_sided = Obs.span "sidedness"

type instance =
  | Undirected of Graph.t
  | Directed of Digraph.t
  | With_terminals of Graph.t * int list
  | Rooted_digraph of Digraph.t * int * int list

type t = {
  name : string;
  params : (string * int) list;
  input_bits : int;
  nvertices : int;
  side : bool array;
  build : Bits.t -> Bits.t -> instance;
  predicate : instance -> bool;
  f : Bits.t -> Bits.t -> bool;
}

let graph_of = function
  | Undirected g -> g
  | Directed dg -> Digraph.to_undirected dg
  | With_terminals (g, _) -> g
  | Rooted_digraph (dg, _, _) -> Digraph.to_undirected dg

(* weighted edge fingerprints of the two sides and the cut, plus vertex
   weights per side: everything Definition 1.1 constrains *)
let fingerprint fam instance =
  let g = graph_of instance in
  let side = fam.side in
  let a_edges = ref [] and b_edges = ref [] and cut = ref [] in
  Graph.iter_edges
    (fun u v w ->
      match (side.(u), side.(v)) with
      | true, true -> a_edges := (u, v, w) :: !a_edges
      | false, false -> b_edges := (u, v, w) :: !b_edges
      | _ -> cut := (u, v, w) :: !cut)
    g;
  let weights_of keep =
    List.filter_map
      (fun v -> if keep v then Some (v, Graph.vweight g v) else None)
      (List.init (Graph.n g) Fun.id)
  in
  ( List.sort compare !a_edges,
    List.sort compare !b_edges,
    List.sort compare !cut,
    weights_of (fun v -> side.(v)),
    weights_of (fun v -> not side.(v)) )

let cut_edges fam =
  let x = Bits.zeros fam.input_bits and y = Bits.zeros fam.input_bits in
  let _, _, cut, _, _ = fingerprint fam (fam.build x y) in
  List.map (fun (u, v, _) -> (u, v)) cut

let cut_size fam = List.length (cut_edges fam)

type cut_info = {
  ci_edges : (int * int) array;
  ci_asize : int;
  ci_bsize : int;
  ci_index : (int * int, int) Hashtbl.t;
}

let cut_info fam =
  let edges =
    Array.of_list
      (List.map
         (fun (u, v) -> if fam.side.(u) then (u, v) else (v, u))
         (cut_edges fam))
  in
  Array.sort compare edges;
  let index = Hashtbl.create (2 * Array.length edges) in
  Array.iteri
    (fun i (a, b) ->
      Hashtbl.replace index (a, b) i;
      Hashtbl.replace index (b, a) i)
    edges;
  let asize = Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 fam.side in
  {
    ci_edges = edges;
    ci_asize = asize;
    ci_bsize = Array.length fam.side - asize;
    ci_index = index;
  }

let cut_index ci u v = Hashtbl.find_opt ci.ci_index (u, v)

(* ---- t-party multicut descriptors ------------------------------------ *)

type multicut_info = {
  mc_parts : int;
  mc_edges : (int * int) array;
  mc_index : (int * int, int) Hashtbl.t;
  mc_part_sizes : int array;
}

(* Like [cut_info], measured on the zero-input instance: Definition 1.1
   (and its multiparty analogue) requires the multicut to be input
   independent, so families registering a partition must keep their
   input edges inside parts. *)
let multicut_info fam ~partition =
  if Array.length partition <> fam.nvertices then
    invalid_arg "Framework.multicut_info: partition length";
  let t = Ch_congest.Network.partition_parts partition in
  let x = Bits.zeros fam.input_bits and y = Bits.zeros fam.input_bits in
  let g = graph_of (fam.build x y) in
  let cross = ref [] in
  Graph.iter_edges
    (fun u v _ ->
      if partition.(u) <> partition.(v) then
        cross :=
          (if partition.(u) < partition.(v) then (u, v) else (v, u)) :: !cross)
    g;
  let edges = Array.of_list !cross in
  Array.sort compare edges;
  let index = Hashtbl.create (2 * Array.length edges) in
  Array.iteri
    (fun i (a, b) ->
      Hashtbl.replace index (a, b) i;
      Hashtbl.replace index (b, a) i)
    edges;
  let sizes = Array.make t 0 in
  Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) partition;
  { mc_parts = t; mc_edges = edges; mc_index = index; mc_part_sizes = sizes }

let multicut_index mc u v = Hashtbl.find_opt mc.mc_index (u, v)

let build_timed fam x y = Obs.with_span sp_apply (fun () -> fam.build x y)

let verdict fam x y =
  let inst = build_timed fam x y in
  Obs.with_span sp_solver (fun () -> fam.predicate inst)

(* CONGEST assumes a connected network: the single-rooted gather cannot
   (and no distributed algorithm could) decide a global predicate across
   components that cannot talk to each other. *)
let connected = function
  | Undirected g -> Props.connected g
  | Directed dg -> Props.connected (Ch_congest.Network.comm_graph dg)
  | With_terminals _ | Rooted_digraph _ -> true

(* ---- incremental descriptors ---------------------------------------- *)

type cache_stats = { cache_hits : int; cache_misses : int }

let no_cache_stats = { cache_hits = 0; cache_misses = 0 }

let add_cache_stats a b =
  {
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
  }

type prepared = {
  pbuild : Bits.t -> Bits.t -> instance;
  pverdict : Bits.t -> Bits.t -> bool;
  pstats : unit -> cache_stats;
}

type incremental = { scratch : t; prepare : unit -> prepared }

(* ---- the verdict engine --------------------------------------------- *)

type engine = Scratch of t | Incremental of incremental

let family_of = function Scratch fam -> fam | Incremental inc -> inc.scratch

(* One chunk [lo, hi) on the calling domain.  The incremental engine
   prepares once per chunk, so its per-instance query scratch never
   crosses domains while the memoized core tables are shared. *)
let chunk engine mode lo hi =
  let pair = Pairs.pair_at ~k:(family_of engine).input_bits mode in
  match engine with
  | Scratch fam ->
      ( Array.init (hi - lo) (fun j ->
            let x, y = pair (lo + j) in
            verdict fam x y),
        no_cache_stats )
  | Incremental inc ->
      let p = Obs.with_span sp_core inc.prepare in
      let v =
        Array.init (hi - lo) (fun j ->
            let x, y = pair (lo + j) in
            Obs.with_span sp_solver (fun () -> p.pverdict x y))
      in
      (v, p.pstats ())

(* The pair space is chunked into index ranges merged in range order,
   and every pair derives from its index alone, so the stream is
   bit-identical for any pool width. *)
let verdicts ?pool ?range engine mode =
  let total = Pairs.total ~k:(family_of engine).input_bits mode in
  let chunks =
    match range with
    | None ->
        let pool = match pool with Some p -> p | None -> Pool.default () in
        Pool.parallel_chunks pool ~lo:0 ~hi:total (chunk engine mode)
    | Some (lo, hi) ->
        if lo < 0 || hi < lo || hi > total then
          invalid_arg "Framework.verdicts: range outside [0, total)";
        if lo = hi then [] else [ chunk engine mode lo hi ]
  in
  ( Array.concat (List.map fst chunks),
    List.fold_left
      (fun acc (_, s) -> add_cache_stats acc s)
      no_cache_stats chunks )

let failures fam mode verdicts =
  let pair = Pairs.pair_at ~k:fam.input_bits mode in
  let n = ref 0 in
  Array.iteri
    (fun i v ->
      let x, y = pair i in
      if v <> fam.f x y then incr n)
    verdicts;
  !n

let random_pair_at fam ~seed =
  Pairs.pair_at ~k:fam.input_bits (Pairs.Sampled { seed; samples = 0 })

(* Sample [i] uses seeds (seed + 4i .. seed + 4i + 3). *)
let check_sidedness ?pool ~seed ~samples fam =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let k = fam.input_bits in
  let sample_ok i =
    Obs.with_span sp_sided (fun () ->
        let ok = ref true in
        let x = Bits.random ~seed:(seed + (4 * i)) k in
        let x' = Bits.random ~seed:(seed + (4 * i) + 1) k in
        let y = Bits.random ~seed:(seed + (4 * i) + 2) k in
        let y' = Bits.random ~seed:(seed + (4 * i) + 3) k in
        let _, b1, c1, _, wb1 = fingerprint fam (build_timed fam x y) in
        let _, b2, c2, _, wb2 = fingerprint fam (build_timed fam x' y) in
        (* changing x must leave Bob's side and the cut untouched *)
        if not (b1 = b2 && c1 = c2 && wb1 = wb2) then ok := false;
        let a1, _, c1, wa1, _ = fingerprint fam (build_timed fam x y) in
        let a2, _, c2, wa2, _ = fingerprint fam (build_timed fam x y') in
        if not (a1 = a2 && c1 = c2 && wa1 = wa2) then ok := false;
        (* the vertex count is fixed *)
        if Graph.n (graph_of (build_timed fam x y)) <> fam.nvertices then
          ok := false;
        !ok)
  in
  let oks =
    Pool.parallel_chunks pool ~lo:0 ~hi:samples (fun lo hi ->
        let ok = ref true in
        for i = lo to hi - 1 do
          if not (sample_ok i) then ok := false
        done;
        !ok)
  in
  List.for_all Fun.id oks

let lower_bound_rounds ~input_bits ~cut ~n =
  float_of_int (Commfn.cc_disj_lower_bound input_bits)
  /. (float_of_int cut *. (log (float_of_int n) /. log 2.0))

type solver =
  | Graph_solver of (Graph.t -> int)
  | Digraph_solver of (Digraph.t -> int)

let reduce ~name ~transform ~nvertices ~side ~predicate fam =
  {
    name;
    params = fam.params;
    input_bits = fam.input_bits;
    nvertices;
    side;
    build = (fun x y -> transform (fam.build x y));
    predicate;
    f = fam.f;
  }
