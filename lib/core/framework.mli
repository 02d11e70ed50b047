open Ch_graph
open Ch_cc

(** The paper's lower-bound framework.

    A {e family of lower bound graphs} (Definition 1.1) w.r.t. a function
    f : \{0,1\}^K × \{0,1\}^K → \{TRUE,FALSE\} and a predicate P is a set
    of graphs G_{x,y} on a fixed vertex set V = V_A ⊎ V_B such that only
    G[V_A] depends on x, only G[V_B] depends on y, and G_{x,y} ⊨ P iff
    f(x,y).  Theorem 1.1 turns such a family into an
    Ω(CC(f)/(|E_cut|·log n)) round lower bound: Alice and Bob simulate a
    CONGEST algorithm for P, exchanging only the messages that cross
    E_cut. *)

type instance =
  | Undirected of Graph.t
  | Directed of Digraph.t
  | With_terminals of Graph.t * int list
  | Rooted_digraph of Digraph.t * int * int list
      (** graph, root, terminals — the directed Steiner instances *)

type t = {
  name : string;
  params : (string * int) list;  (** construction parameters, e.g. [("k", 4)] *)
  input_bits : int;  (** K: the length of each player's input *)
  nvertices : int;
  side : bool array;  (** [side.(v)] iff v ∈ V_A *)
  build : Bits.t -> Bits.t -> instance;
  predicate : instance -> bool;  (** P, decided by an exact solver *)
  f : Bits.t -> Bits.t -> bool;  (** the communication function (e.g. ¬DISJ) *)
}

val graph_of : instance -> Graph.t
(** The underlying undirected graph (directed instances forget
    orientation) — used for structural measurements. *)

val cut_edges : t -> (int * int) list
(** E_cut of the family, measured on the all-zeros instance (by
    Definition 1.1 it is the same for every instance). *)

val cut_size : t -> int

type cut_info = {
  ci_edges : (int * int) array;
      (** E_cut, oriented (Alice endpoint, Bob endpoint), sorted *)
  ci_asize : int;  (** |V_A| *)
  ci_bsize : int;  (** |V_B| *)
  ci_index : (int * int, int) Hashtbl.t;  (** both orientations → index *)
}

val cut_info : t -> cut_info
(** The cut/side descriptor the reduction simulation works from:
    {!cut_edges} oriented towards Alice and indexed for per-edge traffic
    attribution (see [Ch_reduction.Trace]). *)

val cut_index : cut_info -> int -> int -> int option
(** Index of the cut edge {u,v} in {!field-ci_edges} (either endpoint
    order), or [None] when {u,v} does not cross the cut. *)

type multicut_info = {
  mc_parts : int;  (** t *)
  mc_edges : (int * int) array;
      (** the multicut, oriented (lower part, higher part), sorted *)
  mc_index : (int * int, int) Hashtbl.t;  (** both orientations → index *)
  mc_part_sizes : int array;  (** vertices per part *)
}

val multicut_info : t -> partition:int array -> multicut_info
(** The t-party analogue of {!cut_info} for a vertex partition: the cross
    edges of the zero-input instance, indexed for per-edge traffic
    attribution.  Like the 2-party cut, the multicut must be input
    independent — families registering a partition keep their input
    edges inside parts.
    @raise Invalid_argument on a partition of the wrong length or with
    an empty part. *)

val multicut_index : multicut_info -> int -> int -> int option

(** {1 Family verification}

    {2 The pair space and the engine}

    A family is verified over its input-pair space ({!Pairs}): {!verdicts}
    answers P(G_{x,y}) at every index of a {!Pairs.mode}, and {!failures}
    folds that stream against f.  Index [p] is the pair
    {!Pairs.pair_at}[ ~k mode p]: row-major (x, y) in {!Bits.all} order
    when exhaustive; when sampled, the four corner pairs, then draw [i]
    from seeds [(seed + 2i, seed + 2i + 1)] — with replacement, so every
    index counts, duplicates included.  A pair depends on its index
    alone, never on a shared RNG stream.

    Without [range], the index space is cut into contiguous chunks over
    a domain pool ([pool], else {!Pool.default}, sized by [CH_JOBS]) and
    the chunk streams are merged in index order, so the result is
    bit-identical for any worker count and schedule.  With
    [~range:(lo, hi)] only that slice runs, as one chunk on the calling
    domain; the slices of any cut of [\[0, total)] concatenate to the
    whole stream, which is how the sweep computes its shards.

    Per pair, the scratch engine builds G_{x,y} under the [apply_inputs]
    span and decides P under [solver]; the incremental engine calls
    [prepare] once per chunk under [core_build], then [pverdict] under
    [solver]. *)

val verdict : t -> Bits.t -> Bits.t -> bool
(** P(G_{x,y}) from scratch: one cell of the scratch engine's stream. *)

val connected : instance -> bool
(** Is the instance's network connected (the communication graph, for
    directed constructions)?  CONGEST assumes a connected network, so the
    reduction sweeps and the [simulate] command skip pairs where this
    fails.  Steiner instances count as connected. *)

(** {2 Incremental verification}

    Per Definition 1.1 only the input encoding — O(k) edges — varies
    across the 2^K × 2^K pair space; the gadget core is fixed.  An
    {!incremental} descriptor exploits that: {!field-prepare} builds the
    core (and any solver cache, see [Ch_solvers.Cache]) once, and the
    returned {!prepared} patches input edges and answers the predicate
    per pair.  The plain {!field-scratch} family is kept alongside as the
    reference oracle — the incremental engine promises a stream
    bit-identical to the scratch engine's, which the differential tests
    and the bench harness assert pair by pair. *)

type cache_stats = { cache_hits : int; cache_misses : int }
(** Summed solver-cache counters: a miss is a core-table computation, a
    hit an operation served from cached tables (see [Ch_solvers.Cache]). *)

type prepared = {
  pbuild : Bits.t -> Bits.t -> instance;
      (** Patch the core with the pair's input edges.  The returned
          instance aliases the core graph: it is valid until the next
          [pbuild]/[pverdict] call on this prepared value. *)
  pverdict : Bits.t -> Bits.t -> bool;
      (** P(G_{x,y}), equal to [scratch.predicate (scratch.build x y)]
          but answered from the core caches.

          {b Decision-bounded queries.}  Every family predicate is a
          threshold test ("optimum ≤ target" or "≥ target"), so a
          [pverdict] need not compute the optimum: it may call the
          solver's decision form ([Domset.exists_within],
          [Cache.maxcut_max ~stop_at], [Cache.dsteiner_cost ~cutoff],
          …), which cancels branch-and-bound subtrees that provably
          cannot cross the threshold.  The contract is unchanged — the
          verdict must be bit-identical to the scratch oracle on every
          pair, which the differential tests assert; only the node
          counts ([solver.*.nodes] in [Ch_obs]) shrink. *)
  pstats : unit -> cache_stats;
}

type incremental = {
  scratch : t;  (** the from-scratch family — the reference oracle *)
  prepare : unit -> prepared;
      (** build the core and solver caches; call once per worker *)
}

(** {2 Running the engine} *)

type engine =
  | Scratch of t  (** {!verdict} per pair *)
  | Incremental of incremental  (** one [prepare] per chunk, then [pverdict] *)

val verdicts :
  ?pool:Pool.t ->
  ?range:int * int ->
  engine ->
  Pairs.mode ->
  bool array * cache_stats
(** P(G_{x,y}) at every index of [mode] (or of [\[lo, hi)]), plus the
    summed cache counters of the incremental engine's chunks (zero for
    the scratch engine).
    @raise Invalid_argument when {!Pairs.total} rejects the mode, or
    on a range outside [\[0, total)]. *)

val failures : t -> Pairs.mode -> bool array -> int
(** How many indices of a whole [mode] stream hold a verdict that differs
    from f(x, y). *)

val random_pair_at : t -> seed:int -> int -> Bits.t * Bits.t
(** {!Pairs.pair_at} of the sampled mode with this seed — a shim kept for
    the benchmark ([perfbench/]), which calls it; nothing else does. *)

val check_sidedness : ?pool:Pool.t -> seed:int -> samples:int -> t -> bool
(** Conditions 1–3 of Definition 1.1: the vertex set is fixed, G[V_B] and
    E_cut (edges, weights, vertex weights) do not depend on x, and
    symmetrically for y.  Checked on random input pairs; sample [i] draws
    its four strings from seeds [seed + 4i .. seed + 4i + 3] — a check of
    the construction, not a verdict stream, so it keeps its own draw.
    Fans out over the pool like {!verdicts}, with the same determinism. *)

(** {1 Theorem 1.1} *)

val lower_bound_rounds : input_bits:int -> cut:int -> n:int -> float
(** CC(f)/(|E_cut|·log₂ n) with CC instantiated as the Ω(K) disjointness
    bound: the round lower bound the family certifies. *)

type solver =
  | Graph_solver of (Graph.t -> int)
  | Digraph_solver of (Digraph.t -> int)
      (** the local decision procedure a reduction runs at the gather
          root — on the undirected instance, or on the digraph itself
          for directed constructions (Hamiltonian families) *)

(** {1 Theorem 2.6: reductions between families} *)

val reduce :
  name:string ->
  transform:(instance -> instance) ->
  nvertices:int ->
  side:bool array ->
  predicate:(instance -> bool) ->
  t ->
  t
(** A new family G′_{x,y} = transform(G_{x,y}).  The Theorem 2.6 side
    conditions (V′ and E′ determined side-by-side) are not assumed — they
    are re-checked by {!check_sidedness} on the result. *)
