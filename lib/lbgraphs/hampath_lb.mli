open Ch_cc

(** The Figure 2 / Theorems 2.2–2.5 constructions: directed Hamiltonian
    path, directed Hamiltonian cycle (one extra [middle] vertex), their
    undirected variants (via the Lemma 2.2/2.3 transforms), and minimum
    2-ECSS (via Claim 2.7).

    For every 0 ≤ c < 2·log k the box C_c encodes the choice of the c-th
    bit of the indices (i, j): a Hamiltonian path must commit, per box, to
    the true- or false- launch lane, and the lanes' wheel vertices are the
    row vertices a₁/b₁ (boxes c < log k) or a₂/b₂ (boxes c ≥ log k) whose
    binary representation matches the choice.  Whatever the choices, the
    four row vertices a₁^i, a₂^j, b₁^i, b₂^j they spell are the only ones
    left unvisited, and the suffix start→…→end exists iff the input edges
    (a₁^i, a₂^j) and (b₁^i, b₂^j) are both present, i.e. x_{i,j} = y_{i,j}
    = 1. *)

module Ix : sig
  val n : k:int -> int
  (** 6 + 4k + 2·log k · (2 + 6k). *)

  val start : int

  val end_ : int

  val s11 : int

  val s21 : int

  val s12 : int

  val s22 : int

  val row : k:int -> Mds_lb.set -> int -> int

  val g : k:int -> int -> int

  val r : k:int -> int -> int

  val launch : k:int -> c:int -> d:int -> q:bool -> int
  (** [q = true] is the paper's t-lane. *)

  val skip : k:int -> c:int -> d:int -> q:bool -> int

  val burn : k:int -> c:int -> d:int -> q:bool -> int

  val wheel : k:int -> c:int -> d:int -> q:bool -> int
  (** The row vertex serving as wheel^{c,d}_q. *)
end

val witness_path : k:int -> Bits.t -> Bits.t -> i:int -> j:int -> int list
(** The explicit Hamiltonian path of Claim 2.1 for an intersecting index
    pair (x_{i,j} = y_{i,j} = 1 required): forward wheel/beta steps along
    the chosen lanes, backward steps along the opposite lanes, then
    start→…→end through a₁^i, a₂^j, b₁^i, b₂^j.  Lets the completeness
    direction be checked constructively at any k, where search is
    hopeless. *)

val side : k:int -> bool array

val path_family : k:int -> Ch_core.Framework.t
(** Directed Hamiltonian path (Theorem 2.2).  The core is everything but
    the row-to-row arcs; bit (i, j) of x adds the arc (a₁^i, a₂^j) when
    set, and bit (i, j) of y adds (b₁^i, b₂^j). *)

val incremental : k:int -> Ch_core.Framework.incremental
(** Incremental descriptor for {!path_family}.  [prepare] builds the
    pattern table of {!Ch_solvers.Cache.hampath_prepare} over the core
    digraph, with the family's 2k² input arcs as candidates; each
    verdict is then a scan of the minimal patterns for one inside the
    pair's arcs, with no search.  At k = 2 the
    table has 4 minimal patterns, one per (i, j): the arcs (a₁^i, a₂^j)
    and (b₁^i, b₂^j), which is Claim 2.1.  At k ≥ 4 the pattern count is
    over the cache's cap and [prepare] raises [Invalid_argument]; the
    scratch family, a full search per pair, stays the oracle at every
    k. *)

val cycle_family : k:int -> Ch_core.Framework.t
(** Directed Hamiltonian cycle: adds [middle] to the core (Theorem 2.3);
    the input arcs are those of {!path_family}. *)

val undirected_cycle_family : k:int -> Ch_core.Framework.t
(** Via the Lemma 2.2 transform (Theorem 2.4): each vertex v becomes
    (3v, 3v+1, 3v+2) and each arc (u, v), input arcs included, the edge
    (3u+2, 3v). *)

val undirected_path_family : k:int -> Ch_core.Framework.t
(** Via the Lemma 2.3 transform on top (Theorem 2.4): vertex 0 is split,
    each edge at 0 gaining a twin at the new vertex. *)

val ecss_family : k:int -> Ch_core.Framework.t
(** Minimum 2-ECSS (Theorem 2.5): the undirected-cycle graph has a
    2-edge-connected spanning subgraph with exactly n edges iff the cycle
    exists (Claim 2.7); the predicate is decided through that equivalence,
    which test_solvers verifies independently. *)

val specs : Ch_core.Registry.spec list
(** Registry entries ["hampath"] (incremental), ["hamcycle"],
    ["hamcycle-undirected"], ["hampath-undirected"] and ["2ecss"]. *)
