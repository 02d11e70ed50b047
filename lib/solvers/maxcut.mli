open Ch_graph

(** Exact maximum (weight) cut via Gray-code enumeration, plus a local
    search used by approximation experiments. *)

val cut_weight : Graph.t -> bool array -> int
(** Total weight of the edges crossing the bipartition. *)

type adjacency
(** Weighted adjacency rows as flat int arrays, which the Gray-code walks
    read without allocating. *)

val adjacency : int -> (int * int * int) list -> adjacency
(** [adjacency n edges] holds each edge [(u, v, w)] on the vertices
    [0 .. n-1] in the rows of both endpoints; a repeated edge counts once
    per occurrence. *)

val flip_delta : adjacency -> bool array -> int -> int
(** [flip_delta adj side v] is the change in cut weight when [v]
    switches sides. *)

val max_cut : Graph.t -> int * bool array
(** Exact maximum cut.  Enumeration over [2^(n-1)] assignments with O(deg)
    incremental updates.  @raise Invalid_argument when [n > 30]. *)

val exists_of_weight : Graph.t -> int -> bool
(** Is there a cut of weight at least the bound?  The same Gray-code walk
    as {!max_cut}, stopped at the first assignment reaching the bound —
    worst case the full walk, typically a small prefix on yes
    instances.  @raise Invalid_argument when [n > 30]. *)

val conditioned_max : Graph.t -> volatile:int list -> int array
(** [conditioned_max g ~volatile] is the table [m] of size
    [2^(List.length volatile)] with [m.(a)] the maximum cut weight of [g]
    over all assignments placing [volatile] vertex [i] on side [true] iff
    bit [i] of [a] is set (the non-volatile vertices range freely).  With
    the volatile sides fixed, each component C of [g] minus the volatile
    set is independent of the others given its volatile neighbours N(C),
    so [m.(a)] is the cut weight of the volatile–volatile edges plus, per
    C, the best completion of C under [a]'s sides of N(C): one Gray-code
    walk over C per assignment of N(C), [Σ_C 2^|N(C)|·(2^|C| − 1)] flips
    in all (7 648 for the k = 2 max-cut core) and never more than a
    [2^n] walk.  Afterwards the exact max cut of [g] plus any extra edges
    {e within} the volatile set is [max_a (m.(a) + extra_cut a)] — a
    [2^|volatile|] scan per query instead of a fresh [2^n] enumeration
    (see {!Ch_solvers.Cache}).
    @raise Invalid_argument when [n > 30] or [volatile] repeats or
    exceeds the vertex range. *)

val local_search : seed:int -> Graph.t -> int * bool array
(** 1-flip local optimum from a random start: each side-flip that improves
    the cut is applied until none remains.  Guarantees weight at least half
    of the total edge weight. *)

val random_cut : seed:int -> Graph.t -> int * bool array
(** The trivial randomized (expected) 1/2-approximation. *)
