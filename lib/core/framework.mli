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

(** {1 Objectives and goals}

    P is a threshold on an optimum: a family declares the exact solver
    of the optimisation problem (its objective) and the side of the
    threshold the yes-instances lie on (its goal), and P(G) is "the
    objective of G meets the goal".  The same declaration gives the
    Theorem 1.1 reduction its root solver and acceptance test (see
    [Registry.spec]). *)

type objective =
  | Of_graph of (Graph.t -> int)  (** reads an [Undirected] instance *)
  | Of_digraph of (Digraph.t -> int)  (** reads a [Directed] instance *)
  | Of_terminals of (Graph.t -> int list -> int)
      (** reads a [With_terminals] instance: graph, terminals *)
  | Of_rooted of (Digraph.t -> root:int -> int list -> int)
      (** reads a [Rooted_digraph] instance: digraph, root, terminals *)

type goal = At_most of int | At_least of int

val meets : goal -> int -> bool
(** [meets (At_most t) v] is [v <= t], [meets (At_least t) v] is [v >= t]. *)

(** {1 Input encodings}

    Every construction is a fixed core plus a few elements per input
    bit: the family declares its core instance — everything that does
    not depend on the input, terminals and root included — and, for
    each bit of x and of y, the elements the bit adds at 0 and at 1.
    From that declaration this module derives the scratch [build], the
    patcher behind the incremental engine, the per-pair [~extra] lists
    of the solver caches, the volatile vertices, the cut and the exact
    Definition 1.1 check {!sided}. *)

type element =
  | Edge of int * int * int
      (** [Edge (u, v, w)]: the edge \{u,v\} of weight w — the arc u→v on
          a directed core *)
  | Weight of int * int * int
      (** [Weight (u, v, d)]: d added to the weight of the core edge (or
          arc) \{u,v\} *)
  | Vweight of int * int
      (** [Vweight (v, w)]: vertex v weighs w (at most one bit sets a
          given vertex's weight) *)

type bit = { at0 : element list; at1 : element list }
(** What one input bit adds to the core when it is 0 and when it is 1. *)

type encoding
(** A core constructor with its per-bit declaration.  The shared core
    and the tables derived from the declaration are built on first use,
    at most once per family value and under a lock (see {!Pool.once}),
    and only read afterwards, so one family is safe to share across
    domains. *)

type t = {
  name : string;
  params : (string * int) list;  (** construction parameters, e.g. [("k", 4)] *)
  input_bits : int;  (** K: the length of each player's input *)
  nvertices : int;  (** |V|, the length of [side] *)
  side : bool array;  (** [side.(v)] iff v ∈ V_A *)
  encoding : encoding;
  objective : objective;  (** the exact solver P thresholds *)
  goal : goal;  (** P holds when the objective meets it *)
  f : Bits.t -> Bits.t -> bool;  (** the communication function (e.g. ¬DISJ) *)
}

val family :
  name:string ->
  params:(string * int) list ->
  side:bool array ->
  core:(unit -> instance) ->
  input_bits:int ->
  x:(int -> bit) ->
  y:(int -> bit) ->
  objective:objective ->
  goal:goal ->
  f:(Bits.t -> Bits.t -> bool) ->
  t
(** The family of an encoding: bit i of x adds [x i] and bit i of y adds
    [y i], for i < [input_bits].  [core ()] constructs the core and must
    return a fresh instance on every call: it is called once for the
    shared core ({!core}) and once per scratch build and per patcher. *)

val core : t -> instance
(** The declared core, built on first use — shared, so read it, never
    mutate it. *)

val build : t -> Bits.t -> Bits.t -> instance
(** G_{x,y} from scratch: a fresh core plus the pair's elements, x's
    before y's at each bit. *)

val holds : t -> instance -> bool
(** P: the objective on the instance meets the goal.
    @raise Invalid_argument when the objective reads another instance
    kind. *)

val value : t -> Bits.t -> Bits.t -> int
(** The objective on G_{x,y}, built from scratch.
    @raise Invalid_argument as {!holds}. *)

val gap_holds : t -> no:goal -> Bits.t -> Bits.t -> bool
(** A Section 4 gap at one pair: where f(x, y) holds the objective
    meets the family's goal, elsewhere it meets [no] (e.g. a weight
    above r). *)

val sided : t -> bool
(** Conditions 1–3 of Definition 1.1, exactly: [side] has the core's
    length, every element of an x-bit lies inside V_A and every element
    of a y-bit inside V_B.  The core is the same for every pair, so the
    vertex set, and G[V_B] and E_cut under x (symmetrically G[V_A] and
    E_cut under y), then cannot change. *)

val volatile : t -> int list
(** Every vertex an element touches, ascending: the only vertices whose
    edges or weights depend on the input — the volatile set the
    conditioned solver caches range over. *)

val candidates : t -> (int * int) list
(** Every [Edge] element's endpoints, ascending: the arcs an input may
    add (the candidates of [Cache.hampath_prepare]). *)

val edges : t -> Bits.t -> Bits.t -> (int * int) list
(** The pair's [Edge] elements as endpoint pairs: the [~extra] of the
    edge-keyed cache queries. *)

val weighted_edges : t -> Bits.t -> Bits.t -> (int * int * int) list
(** The pair's [Edge] and [Weight] elements as [(u, v, w)]: the
    [~extra] of the weighted cache queries, where a weight added to a
    core edge counts like a parallel edge of that weight. *)

val graph_of : instance -> Graph.t
(** The underlying undirected graph (directed instances forget
    orientation) — used for structural measurements. *)

val cut_edges : t -> (int * int) list
(** E_cut of the family: the core's edges between V_A and V_B, sorted
    (the elements stay inside a side — see {!sided}). *)

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
(** The t-party analogue of {!cut_info} for a vertex partition: the
    core's cross edges, indexed for per-edge traffic attribution.  Like
    the 2-party cut, the multicut must be input independent, so every
    element must stay inside one part.
    @raise Invalid_argument on a partition of the wrong length, with an
    empty part, or split by an element. *)

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

    Per Definition 1.1 only the elements — O(k) of them — vary across
    the 2^K × 2^K pair space; the core is fixed.  {!incremental} builds
    a family's descriptor from one cache query: {!field-prepare} makes a
    {!patcher} and runs the query's solver-cache preparation on the
    core (see [Ch_solvers.Cache]) once, and the
    returned {!prepared} answers the predicate per pair.  The plain
    {!field-scratch} family is kept alongside as the reference oracle —
    the incremental engine promises a stream bit-identical to the
    scratch engine's, which the differential tests and the bench harness
    assert pair by pair. *)

type cache_stats = { cache_hits : int; cache_misses : int }
(** Summed solver-cache counters: a miss is a core-table computation, a
    hit an operation served from cached tables (see [Ch_solvers.Cache]). *)

type prepared = {
  pbuild : Bits.t -> Bits.t -> instance;
      (** Patch the core with the pair's input edges.  The returned
          instance aliases the core graph: it is valid until the next
          [pbuild]/[pverdict] call on this prepared value. *)
  pverdict : Bits.t -> Bits.t -> bool;
      (** P(G_{x,y}), equal to {!verdict} on the scratch family but
          answered from the core caches.

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
      (** build the patcher and solver caches; call once per worker *)
}

type patcher
(** A private core of a family holding one pair's elements. *)

val patcher : t -> patcher
(** A patcher holding no pair yet. *)

val patch : patcher -> Bits.t -> Bits.t -> instance
(** Move the patcher to (x, y) — its first call builds the pair from
    scratch, later calls take out and add the elements of only the bits
    that changed since the pair it held — and return its instance,
    structurally equal to [build x y].  The instance is the
    patcher's own: valid until the next [patch].
    @raise Invalid_argument on inputs of the wrong length. *)

type query = {
  verdict : Bits.t -> Bits.t -> bool;
      (** P(G_{x,y}), answered from the query's prepared tables *)
  stats : unit -> Ch_solvers.Cache.stats;  (** those tables' counters *)
}

val incremental : t -> (patch:(Bits.t -> Bits.t -> instance) -> query) -> incremental
(** [incremental fam q]: each [prepare] makes a fresh {!patcher} and
    calls [q ~patch], which prepares its cache on {!core} (once per
    worker; the memo shares the tables) and returns the per-pair query.
    The verdict reads its [~extra] from {!edges} or {!weighted_edges},
    and calls [patch] only when the solver needs the patched instance
    itself. *)

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
  element:(element -> element list) ->
  side:bool array ->
  objective:objective ->
  goal:goal ->
  t ->
  t
(** A new family G′_{x,y} = transform(G_{x,y}) for an edge-local
    transform: the core becomes [transform core] (applied to a fresh
    base core each time one is needed) and each element e of each bit
    becomes [element e], so transform(core + E) must equal
    transform(core) + the mapped E.  Every transform in the registry is
    such (Theorem 2.6's copies, the 2-spanner hub, Lemma 2.2's vertex
    split, Lemma 2.3's split of vertex 0); the result is an encoding
    again, so {!sided} checks it exactly. *)
