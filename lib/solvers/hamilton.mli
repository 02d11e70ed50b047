open Ch_graph

(** Exact Hamiltonian path / cycle search for directed and undirected
    graphs, with the reachability and dead-end pruning needed to decide the
    paper's ~40-vertex gadget instances quickly. *)

val directed_path : Digraph.t -> int list option
(** A Hamiltonian path with arbitrary endpoints, or [None]. *)

val directed_path_over : succ:Bitset.t array -> pred:Bitset.t array -> int list option
(** {!directed_path} straight over adjacency bitsets (vertex [v]'s
    out-neighbors in [succ.(v)], in-neighbors in [pred.(v)]) — the entry
    point for callers that patch shared core bitsets instead of
    rebuilding a digraph, as {!Cache.hampath_prepare} does per arc
    pattern.  The arrays are only read. *)

val directed_path_between : Digraph.t -> src:int -> dst:int -> int list option

val directed_cycle : Digraph.t -> int list option
(** A Hamiltonian cycle (listed from an arbitrary start, length [n]). *)

val undirected_path : Graph.t -> int list option

val undirected_cycle : Graph.t -> int list option

val is_directed_path : Digraph.t -> int list -> bool

val is_directed_cycle : Digraph.t -> int list -> bool

val is_undirected_path : Graph.t -> int list -> bool

val is_undirected_cycle : Graph.t -> int list -> bool
