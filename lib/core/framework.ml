open Ch_graph
open Ch_cc
module Obs = Ch_obs.Obs

(* Telemetry spans shared by every verification path: [apply_inputs]
   wraps instance construction, [solver] wraps the predicate (scratch or
   prepared) and [core_build] wraps per-chunk incremental preparation.
   All no-ops unless Obs is enabled. *)
let sp_apply = Obs.span "apply_inputs"
let sp_solver = Obs.span "solver"
let sp_core = Obs.span "core_build"

type instance =
  | Undirected of Graph.t
  | Directed of Digraph.t
  | With_terminals of Graph.t * int list
  | Rooted_digraph of Digraph.t * int * int list

let graph_of = function
  | Undirected g -> g
  | Directed dg -> Digraph.to_undirected dg
  | With_terminals (g, _) -> g
  | Rooted_digraph (dg, _, _) -> Digraph.to_undirected dg

(* ---- objectives and goals -------------------------------------------- *)

type objective =
  | Of_graph of (Graph.t -> int)
  | Of_digraph of (Digraph.t -> int)
  | Of_terminals of (Graph.t -> int list -> int)
  | Of_rooted of (Digraph.t -> root:int -> int list -> int)

type goal = At_most of int | At_least of int

let meets goal v = match goal with At_most t -> v <= t | At_least t -> v >= t

(* The one place an instance kind meets the solver that reads it. *)
let evaluate objective inst =
  match (objective, inst) with
  | Of_graph f, Undirected g -> f g
  | Of_digraph f, Directed dg -> f dg
  | Of_terminals f, With_terminals (g, ts) -> f g ts
  | Of_rooted f, Rooted_digraph (dg, root, ts) -> f dg ~root ts
  | _ -> invalid_arg "Framework.evaluate: the objective reads another instance kind"

(* ---- input encodings ------------------------------------------------- *)

type element =
  | Edge of int * int * int
  | Weight of int * int * int
  | Vweight of int * int

type bit = { at0 : element list; at1 : element list }

(* One bit's elements with the cache queries' views of them, each
   indexed by the bit's value: the per-pair [~extra] lists are
   concatenations of these. *)
type bit_tables = {
  elements : element list array;
  edges : (int * int) list array;
  wedges : (int * int * int) list array;
}

type tables = {
  xbits : bit_tables array;
  ybits : bit_tables array;
  volatile : int list;
  candidates : (int * int) list;
}

(* The core stays a constructor and the declaration a function of the
   bit: the shared core and the tables are built on first use, once per
   family value, so a family that is only measured (n, K) builds
   neither, and every scratch build and patcher gets a fresh core from
   [fresh], which is cheaper than copying the shared one's hash
   tables. *)
type encoding = {
  fresh : unit -> instance;
  shared : unit -> instance;
  xdecl : int -> bit;
  ydecl : int -> bit;
  tables : unit -> tables;
}

type t = {
  name : string;
  params : (string * int) list;
  input_bits : int;
  nvertices : int;
  side : bool array;
  encoding : encoding;
  objective : objective;
  goal : goal;
  f : Bits.t -> Bits.t -> bool;
}

let vertex_count = function
  | Undirected g | With_terminals (g, _) -> Graph.n g
  | Directed dg | Rooted_digraph (dg, _, _) -> Digraph.n dg

let vweight inst v =
  match inst with
  | Undirected g | With_terminals (g, _) -> Graph.vweight g v
  | Directed dg | Rooted_digraph (dg, _, _) -> Digraph.vweight dg v

(* Add an element to [inst], or take it back out ([add = false]): a
   removed vertex weight returns to its weight in the core. *)
let change ~core ~add inst e =
  match (inst, e) with
  | (Undirected g | With_terminals (g, _)), Edge (u, v, w) ->
      if add then Graph.add_edge ~w g u v else Graph.remove_edge g u v
  | (Undirected g | With_terminals (g, _)), Weight (u, v, d) ->
      Graph.set_edge_weight g u v (Graph.edge_weight g u v + if add then d else -d)
  | (Undirected g | With_terminals (g, _)), Vweight (v, w) ->
      Graph.set_vweight g v (if add then w else vweight (core ()) v)
  | (Directed dg | Rooted_digraph (dg, _, _)), Edge (u, v, w) ->
      if add then Digraph.add_arc ~w dg u v else Digraph.remove_arc dg u v
  | (Directed dg | Rooted_digraph (dg, _, _)), Weight (u, v, d) ->
      let w = Digraph.arc_weight dg u v in
      Digraph.remove_arc dg u v;
      Digraph.add_arc ~w:(if add then w + d else w - d) dg u v
  | (Directed dg | Rooted_digraph (dg, _, _)), Vweight (v, w) ->
      Digraph.set_vweight dg v (if add then w else vweight (core ()) v)

let rec apply ~core ~add inst = function
  | [] -> ()
  | e :: rest ->
      change ~core ~add inst e;
      apply ~core ~add inst rest

let endpoints = function Edge (u, v, _) | Weight (u, v, _) -> [ u; v ] | Vweight (v, _) -> [ v ]

let tables_of ~input_bits x y =
  let bit b =
    let elements = [| b.at0; b.at1 |] in
    {
      elements;
      edges = Array.map (List.filter_map (function Edge (u, v, _) -> Some (u, v) | _ -> None)) elements;
      wedges =
        Array.map
          (List.filter_map (function
            | Edge (u, v, w) | Weight (u, v, w) -> Some (u, v, w)
            | Vweight _ -> None))
          elements;
    }
  in
  let xbits = Array.init input_bits (fun i -> bit (x i))
  and ybits = Array.init input_bits (fun i -> bit (y i)) in
  let all = Array.to_list (Array.append xbits ybits) in
  {
    xbits;
    ybits;
    volatile =
      List.concat_map (fun b -> List.concat_map endpoints (b.elements.(0) @ b.elements.(1))) all
      |> List.sort_uniq compare;
    candidates =
      List.concat_map (fun b -> b.edges.(0) @ b.edges.(1)) all |> List.sort_uniq compare;
  }

let slot x i = if Bits.get x i then 1 else 0

let check_inputs t x y =
  let k = Array.length t.xbits in
  if Bits.length x <> k || Bits.length y <> k then
    invalid_arg (Printf.sprintf "Framework: inputs must have %d bits" k)

(* The pair's per-bit lists in bit order, x's before y's at each bit. *)
let collect t view x y =
  check_inputs t x y;
  let acc = ref [] in
  for b = Array.length t.xbits - 1 downto 0 do
    acc := view t.xbits.(b) (slot x b) @ view t.ybits.(b) (slot y b) @ !acc
  done;
  !acc

let build fam x y =
  let enc = fam.encoding in
  let t = enc.tables () in
  check_inputs t x y;
  let core = enc.shared and inst = enc.fresh () in
  for b = 0 to Array.length t.xbits - 1 do
    apply ~core ~add:true inst t.xbits.(b).elements.(slot x b);
    apply ~core ~add:true inst t.ybits.(b).elements.(slot y b)
  done;
  inst

let family ~name ~params ~side ~core ~input_bits ~x ~y ~objective ~goal ~f =
  {
    name;
    params;
    input_bits;
    nvertices = Array.length side;
    side;
    encoding =
      {
        fresh = core;
        shared = Pool.once core;
        xdecl = x;
        ydecl = y;
        tables = Pool.once (fun () -> tables_of ~input_bits x y);
      };
    objective;
    goal;
    f;
  }

let core fam = fam.encoding.shared ()

let holds fam inst = meets fam.goal (evaluate fam.objective inst)

let value fam x y = evaluate fam.objective (build fam x y)

let gap_holds fam ~no x y = meets (if fam.f x y then fam.goal else no) (value fam x y)

let edges fam x y = collect (fam.encoding.tables ()) (fun b v -> b.edges.(v)) x y

let weighted_edges fam x y = collect (fam.encoding.tables ()) (fun b v -> b.wedges.(v)) x y

let volatile fam = (fam.encoding.tables ()).volatile

let candidates fam = (fam.encoding.tables ()).candidates

(* every element of every bit, at both values, with its player *)
let all_elements fam =
  let t = fam.encoding.tables () in
  let of_bits alice bits =
    Array.to_list bits
    |> List.concat_map (fun b -> List.map (fun e -> (alice, e)) (b.elements.(0) @ b.elements.(1)))
  in
  of_bits true t.xbits @ of_bits false t.ybits

(* Conditions 1-3 of Definition 1.1, exactly: the core is the fixed
   part, so only the elements can depend on the inputs, and they do so
   inside their player's side. *)
let sided fam =
  let n = vertex_count (core fam) in
  let on alice v = v >= 0 && v < n && fam.side.(v) = alice in
  Array.length fam.side = n
  && List.for_all
       (fun (alice, e) ->
         match e with
         | Edge (u, v, _) | Weight (u, v, _) -> on alice u && on alice v
         | Vweight (v, _) -> on alice v)
       (all_elements fam)

(* By Definition 1.1 the elements stay inside a side, so E_cut is the
   core's crossing edges. *)
let cut_edges fam =
  List.filter_map
    (fun (u, v, _) -> if fam.side.(u) <> fam.side.(v) then Some (u, v) else None)
    (Graph.edges (graph_of (core fam)))

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

(* Like [cut_info], the multicut is the core's: an element joining two
   parts would make it input dependent, so such a partition is refused
   (measured on the core it would undercount the cross traffic). *)
let multicut_info fam ~partition =
  if Array.length partition <> fam.nvertices then
    invalid_arg "Framework.multicut_info: partition length";
  let t = Ch_congest.Network.partition_parts partition in
  if
    List.exists
      (fun (_, e) ->
        match e with
        | Edge (u, v, _) | Weight (u, v, _) -> partition.(u) <> partition.(v)
        | Vweight _ -> false)
      (all_elements fam)
  then invalid_arg "Framework.multicut_info: an input element crosses parts";
  let g = graph_of (core fam) in
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

let verdict fam x y =
  let inst = Obs.with_span sp_apply (fun () -> build fam x y) in
  Obs.with_span sp_solver (fun () -> holds fam inst)

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

(* A private core holding the elements of the pair in [px]/[py], built
   by the first [patch]: queries that never patch build nothing. *)
type patcher = {
  pfam : t;
  ptables : tables;
  mutable pinst : instance option;
  px : bool array;
  py : bool array;
}

let patcher fam =
  let k = fam.input_bits in
  {
    pfam = fam;
    ptables = fam.encoding.tables ();
    pinst = None;
    px = Array.make k false;
    py = Array.make k false;
  }

(* Take bit [b]'s elements at its held value out of [inst] and add those
   at its value in [z], if the two differ. *)
let flip ~core inst bits held z b =
  let v = Bits.get z b in
  if v <> held.(b) then begin
    apply ~core ~add:false inst bits.(b).elements.(if v then 0 else 1);
    apply ~core ~add:true inst bits.(b).elements.(if v then 1 else 0);
    held.(b) <- v
  end

let patch p x y =
  let t = p.ptables in
  check_inputs t x y;
  match p.pinst with
  | None ->
      let inst = build p.pfam x y in
      Array.iteri (fun b _ -> p.px.(b) <- Bits.get x b; p.py.(b) <- Bits.get y b) p.px;
      p.pinst <- Some inst;
      inst
  | Some inst ->
      let core = p.pfam.encoding.shared in
      for b = 0 to Array.length p.px - 1 do
        flip ~core inst t.xbits p.px x b;
        flip ~core inst t.ybits p.py y b
      done;
      inst

type query = {
  verdict : Bits.t -> Bits.t -> bool;
  stats : unit -> Ch_solvers.Cache.stats;
}

let incremental fam query =
  {
    scratch = fam;
    prepare =
      (fun () ->
        let p = patcher fam in
        let q = query ~patch:(patch p) in
        {
          pbuild = patch p;
          pverdict = q.verdict;
          pstats =
            (fun () ->
              let s = q.stats () in
              { cache_hits = s.Ch_solvers.Cache.hits; cache_misses = s.Ch_solvers.Cache.misses });
        });
  }

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

let lower_bound_rounds ~input_bits ~cut ~n =
  float_of_int (Commfn.cc_disj_lower_bound input_bits)
  /. (float_of_int cut *. (log (float_of_int n) /. log 2.0))

type solver =
  | Graph_solver of (Graph.t -> int)
  | Digraph_solver of (Digraph.t -> int)

(* The transform is edge-local, so it maps the core once and each
   declared element on its own, and the result is again an encoding. *)
let reduce ~name ~transform ~element ~side ~objective ~goal fam =
  let map decl i =
    let b = decl i in
    { at0 = List.concat_map element b.at0; at1 = List.concat_map element b.at1 }
  in
  family ~name ~params:fam.params ~side
    ~core:(fun () -> transform (fam.encoding.fresh ()))
    ~input_bits:fam.input_bits ~x:(map fam.encoding.xdecl) ~y:(map fam.encoding.ydecl)
    ~objective ~goal ~f:fam.f
