open Ch_graph

(** Memoized core preprocessing for the exact solvers.

    The lower-bound families (Definition 1.1) share one fixed gadget core
    across the whole 2^K × 2^K input-pair space: only O(k) input edges
    vary per pair.  This module precomputes the solver work that depends
    on the core alone — Steiner connectivity tables, the conditioned
    max-cut table, dominating-set balls, the minimal arc patterns of a
    Hamiltonian path — and answers per-pair queries
    from those tables plus the input-edge delta, exactly matching the
    from-scratch solver results.

    Prepared tables are memoized globally, all seven kinds in one memo
    type that is generic in its key: a graph core keys on
    {!Props.structural_hash} plus the query parameters, with a full
    structural-equality re-check, so hash collisions cannot serve wrong
    tables; a digraph core keys on its vertex count, sorted arc list and
    query parameters.  Tables are immutable once published and safe to
    share across domains; the per-instance query scratch is not, so use
    one prepared instance per worker (the framework prepares one per
    verification chunk).

    {b Counters:} a [miss] is a core-table computation; a [hit] is an
    operation served from cached tables (a memoized prepare, or a
    per-pair query). *)

type stats = { hits : int; misses : int }

(** {1 Steiner trees: {!Steiner.min_extra_nodes} on core + input edges} *)

type steiner

val steiner_prepare :
  Graph.t -> terminals:int list -> volatile:int list -> cap:int -> steiner
(** Tabulate the candidate connector sets of at most [cap] non-terminals
    (the same candidate space as {!Steiner.min_extra_nodes} with [~cap])
    through the [volatile] vertices — the only vertices input edges may
    touch.  One DFS over the sets keeps, per set, the core classes among
    terminals ∪ set:
    - a set with a class holding no volatile vertex and more than one
      class is connected under no input, and is dropped;
    - a set the core alone connects is kept only as the smallest such
      size;
    - every other set is stored as its projection: the canonical core
      component id of each volatile vertex (0xff when unselected) and
      its class count, each projection at its smallest size only.
    The table is a deterministic function of (graph, terminals, volatile,
    cap); the memo key includes all four.
    @raise Invalid_argument when a terminal or volatile vertex is out of
    range, there are no terminals or more than 255 volatile vertices, or
    the subset space exceeds 4 M sets. *)

val steiner_min_extra : steiner -> extra:(int * int) list -> int option
(** The minimum number of non-terminal connector vertices making the
    terminals connected in [core + extra], i.e. exactly
    [Steiner.min_extra_nodes ~cap core_with_extra terminals]: table
    entries are scanned in size order, unioning only the [extra] edges
    over each entry's volatile component ids, and the first entry the
    edges connect — or the smallest size the core connects alone —
    answers.  Every [extra] edge must have both endpoints volatile
    (endpoints outside an entry's set are ignored there, as in the
    from-scratch solver); the counter [cache.steiner.subsets_scanned]
    counts the table entries scanned.
    @raise Invalid_argument on an out-of-range or non-volatile
    endpoint. *)

val steiner_stats : steiner -> stats

(** {1 Max cut: conditioned enumeration over the volatile vertices} *)

type maxcut

val maxcut_prepare : Graph.t -> volatile:int list -> maxcut
(** Tabulate {!Maxcut.conditioned_max} of the core over the [volatile]
    vertices — the only vertices input edges may touch.  The build walks
    each component of the core minus the volatile set once per
    assignment of its volatile neighbours, so its cost follows the
    largest component and its neighbourhood, not [2^n] (1 ms and 7 648
    flips for the k = 2 max-cut core).
    @raise Invalid_argument when [n > 30], the limit the table shares
    with the from-scratch solver {!Maxcut.max_cut}. *)

val maxcut_max : ?stop_at:int -> maxcut -> extra:(int * int * int) list -> int
(** The exact maximum cut weight of [core + extra], i.e.
    [fst (Maxcut.max_cut core_with_extra)], computed as
    [max_a (m.(a) + extra_cut a)] over the [2^|volatile|] volatile
    assignments only.  Every [extra] edge [(u, v, w)] must have both
    endpoints volatile.  With [~stop_at:b] the scan ends at the first
    assignment reaching [b]: the result is the true maximum when below
    [b], and any result ≥ [b] certifies the true maximum is ≥ [b] — so
    comparisons against [b] are exact either way. *)

val maxcut_stats : maxcut -> stats

(** {1 Hamiltonian paths: minimal arc patterns} *)

type hampath

val hampath_prepare : Digraph.t -> candidates:(int * int) list -> hampath
(** Tabulate which sets of [candidates] — the arcs inputs may add to the
    core digraph — give it a Hamiltonian path.  A {e pattern} is a set
    of candidates with pairwise distinct tails and pairwise distinct
    heads.  A Hamiltonian path of [core + extra] uses a pattern of
    [extra] and is a path of [core + pattern] too, and adding arcs never
    removes a path, so the table stores only the minimal true patterns,
    each with the path its search found.  The build enumerates every
    pattern and searches them through {!Hamilton.directed_path_over} by
    decreasing size, skipping any pattern inside one already refuted.
    It runs once per (core, candidates) under the memo lock, so the
    [solver.hamilton.*] counters do not depend on the schedule.
    @raise Invalid_argument when a candidate is out of range, there are
    more candidates than bits in an int, or more than 4 096 patterns
    (the Theorem 2.2 digraph has 49 at k = 2 and 43 681 at k = 4). *)

val hampath_directed_path : hampath -> extra:(int * int) list -> int list option
(** A Hamiltonian path of [core + extra], or [None]: the path stored
    with the first minimal pattern inside [extra], so [None] exactly when
    [Hamilton.directed_path] of [core + extra] is [None].  [extra] may
    repeat arcs and may hold candidates that duplicate core arcs.
    @raise Invalid_argument on an arc that is not a candidate. *)

val hampath_stats : hampath -> stats

(** {1 Max independent set: conditioned table over the volatile vertices} *)

type mis

val mis_prepare : Graph.t -> volatile:int list -> mis
(** For every subset A of [volatile] that is independent in the core, the
    table conceptually holds [|A| + Mis.alpha (core minus volatile minus
    N(A))] — the best completion of A outside the volatile set, which no
    volatile-volatile input edge can change.  The build is lazy: it
    enumerates the subsets and stores only the admissible upper bound
    [|A| + alpha(core minus volatile)] per entry (α is monotone under
    induced subgraphs); exact values are solved on demand at query time
    and memoized, so subsets no query needs are never solved.
    @raise Invalid_argument when there are more than 62 volatile vertices
    or more than 2^16 core-independent subsets (the families' row cliques
    keep it at (k+1)^4). *)

val mis_alpha : mis -> extra:(int * int) list -> int
(** α(core + extra), i.e. exactly [Mis.alpha core_with_extra]: scans the
    compatible subsets (those containing no [extra] edge) in decreasing
    upper-bound order, lazily evaluating until the next bound cannot beat
    the best exact value.  Every [extra] edge must have both endpoints
    volatile. *)

val mis_stats : mis -> stats

(** {1 Max weight independent set: conditioned table, weighted values} *)

type mwis

val mwis_prepare : Graph.t -> volatile:int list -> mwis
(** The weighted twin of {!mis_prepare}: for every core-independent
    subset A of [volatile], tabulate [w(A) + mwis(core minus volatile
    minus N(A))] under the core's vertex weights.  Sound for families
    whose inputs only add volatile-volatile edges and leave the weights
    fixed (the Theorem 4.3 gadget).  Same limits as {!mis_prepare}. *)

val mwis_weight : mwis -> extra:(int * int) list -> int
(** The maximum independent-set weight of [core + extra], i.e. exactly
    [fst (Mis.max_weight_set core_with_extra)].  Every [extra] edge must
    have both endpoints volatile. *)

val mwis_stats : mwis -> stats

(** {1 Node-weighted Steiner: connector-set feasibility table} *)

type nwsteiner

val nwsteiner_prepare : Graph.t -> terminals:int list -> nwsteiner
(** Tabulate, for every subset S of non-terminals, whether the subgraph
    induced on [terminals ∪ S] is connected.  {!Steiner.node_weighted}
    equals the minimum of [w(terminals ∪ S)] over feasible S, so for
    fixed-topology families whose inputs only move vertex weights
    (Theorem 4.4, node-weighted) a per-pair query is a weight fold, not a
    Dreyfus–Wagner run.  @raise Invalid_argument when there are more than
    18 non-terminals. *)

val nwsteiner_cost : nwsteiner -> weights:int array -> int
(** [Steiner.node_weighted] of the core under [weights] (one weight per
    core vertex): minimum over the feasible connector masks via an
    incremental subset-sum.  Raises the same [Invalid_argument]s as the
    from-scratch solver on negative weights or disconnected terminals. *)

val nwsteiner_stats : nwsteiner -> stats

(** {1 Directed Steiner: shared reversed-adjacency snapshot} *)

type dsteiner

val dsteiner_prepare : Digraph.t -> root:int -> terminals:int list -> dsteiner
(** Snapshot the core's reversed adjacency rows, memoized on
    (n, sorted arc list, root, terminals). *)

val dsteiner_cost :
  ?cutoff:int -> dsteiner -> extra:(int * int * int) list -> int option
(** [Steiner.directed ~root terminals] of [core + extra]: the shared
    rows are patched copy-on-write (extra arcs consed onto the rows they
    enter), then solved through {!Steiner.directed_over}.  Extra arcs
    must stay in range; duplicates of core arcs are harmless (the DW
    relaxation takes minima).  [cutoff] as in {!Steiner.directed}: exact
    decision against the bound, with dp rows pruned against it. *)

val dsteiner_stats : dsteiner -> stats

(** {1 Dominating sets: shared closed balls} *)

type domset

val domset_prepare : Graph.t -> radius:int -> domset
(** Precompute the closed radius-[radius] balls of the core, any
    [radius >= 1]. *)

val domset_balls : domset -> extra:(int * int) list -> Bitset.t array
(** Balls of [core + extra]: untouched balls are shared with the core
    tables (copy-on-write on the patched endpoints), so pass the result
    to [Domset.min_size ~balls] / [min_weight_set ~balls] — which only
    read them — on the patched graph.  With [radius > 1] an extra edge
    can perturb balls far from its endpoints, so only [extra = []] is
    accepted there (the weights-only families query exactly that way).
    @raise Invalid_argument otherwise. *)

val domset_stats : domset -> stats

val clear : unit -> unit
(** Drop every memoized core table (counters of live prepared instances
    are unaffected).  Mainly for tests measuring memo behavior. *)

(** {1 Snapshot / restore}

    The sweep store ([Ch_sweep]) and the serve daemon ([Ch_serve])
    persist the memo tables, so a resumed sweep — or a freshly started
    server — begins from a previous run's core tables instead of
    rebuilding them.  Snapshots carry all seven memos: the
    MIS/MWIS tables, whose live form holds a mutex and an evaluation
    closure, are projected to their marshal-safe arrays (masks, bounds,
    lazily-solved values) and {!restore} re-derives a fresh lock and
    evaluator from the entry's frozen graph — solved entries survive the
    round trip, unsolved ones stay lazy. *)

val snapshot : unit -> string
(** A self-contained byte string of the current marshal-safe memo
    contents, deterministic in those contents (entries are sorted by
    key hash). *)

val restore : string -> int
(** Merge a {!snapshot} back in, keeping any table the process already
    holds (full structural re-check, never a blind overwrite); returns
    the number of tables added.  @raise Failure on a byte string that is
    not a cache snapshot or fails to parse — callers checksum snapshots
    before restoring, so this is a defense-in-depth check, not the
    integrity mechanism. *)
