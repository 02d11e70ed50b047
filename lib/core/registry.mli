open Ch_graph

(** The family registry: one first-class catalog of every lower-bound
    family (Definition 1.1 instances) driving the bench, the CLI, the
    reduction sweeps and the tests.

    Each {!spec} packages a family's stable identity (CLI/bench id, human
    title, paper reference), its scale constructor ([k] ↦ scratch
    {!Framework.t}), the optional incremental descriptor, the optional
    Theorem 1.1 reduction algorithm (exact solver + acceptance threshold)
    and its default bench sweep bounds.  Adding a family is then a
    one-file change: export a [specs] list from the construction module
    and append it to the [Families] aggregation — the bench tables, the
    [hardness] subcommands, the reduction sweeps and the registry-generic
    differential tests pick it up from the catalog. *)

type reduction = {
  rd_parties : int;
      (** the simulation's party count: 2 for the classic Alice/Bob
          split over [Framework.side], t ≥ 3 when a vertex partition is
          registered *)
  rd_partition : int array option;
      (** the t-part vertex partition when [rd_parties > 2]; [None]
          means the 2-party [side] split *)
  rd_solver : Framework.solver;
      (** the exact solver of the family's optimisation problem, run at
          the gather root (see [Ch_reduction.Simulate.gather_spec]) *)
  rd_accept : int -> bool;  (** [accept γ ⟺ f(x,y)] at this scale *)
}

val reduction2 : solver:(Graph.t -> int) -> accept:(int -> bool) -> reduction
(** The classic 2-party reduction over the family's Alice/Bob side —
    existing 2-party specs register through this unchanged. *)

val reduction_directed :
  solver:(Digraph.t -> int) -> accept:(int -> bool) -> reduction
(** A 2-party reduction on a directed construction: the gather runs over
    the underlying communication graph and the root solves on the
    digraph itself (Hamiltonian families). *)

val reduction_partitioned :
  partition:int array ->
  solver:(Graph.t -> int) ->
  accept:(int -> bool) ->
  reduction
(** A t-party reduction over a vertex partition (t inferred from the
    partition); every cross-part message is charged against the
    part-pair's channel.  @raise Invalid_argument on an invalid
    partition. *)

type spec = {
  id : string;  (** stable CLI/bench id, e.g. ["mds"] — unique per registry *)
  title : string;  (** human title, e.g. ["exact MDS"] *)
  paper_ref : string;  (** figure/section reference, e.g. ["Thm 2.1, Fig 1"] *)
  origin : string;
      (** the [lib/lbgraphs] module exporting this spec, e.g. ["Mds_lb"] —
          what the CI registration guard checks against the mli exports *)
  default_k : int;  (** the scale the CLI and tests use by default *)
  sweep_ks : int list;  (** default bench sweep bounds (scales per row) *)
  scratch : int -> Framework.t;  (** [k] ↦ the from-scratch family *)
  incremental : (int -> Framework.incremental) option;
      (** [k] ↦ the incremental descriptor, when the family has a solver
          cache query ({!Framework.incremental}) *)
  reduction : (int -> reduction) option;
      (** [k] ↦ the Theorem 1.1 reduction algorithm, when the family has a
          gather codec (undirected instances only) *)
}

type t

exception Duplicate_id of string
(** Raised at registration time when two specs claim the same id. *)

val of_specs : spec list -> t
(** Build a registry, checking id uniqueness.  @raise Duplicate_id. *)

val ids : t -> string list
(** All ids, in registration order. *)

val all : t -> spec list
(** All specs, in registration order. *)

val find : t -> string -> spec option

val find_exn : t -> string -> spec
(** @raise Invalid_argument with {!unknown_id_message} when absent. *)

val mem : t -> string -> bool

val filter :
  ?incremental:bool -> ?reduction:bool -> t -> spec list
(** Specs in registration order, restricted to those with (or, when the
    flag is [false], without) an incremental descriptor / a reduction
    algorithm. *)

val unknown_id_message : t -> string -> string
(** ["unknown family \"foo\"; valid ids: mds, maxis, ..."] — the error
    every consumer prints on a miss, so the valid ids are always shown. *)

val to_json : t -> Ch_json.Jsonx.t
(** The catalog behind [hardness list --json] and the serve [catalog]
    op: [{"families": [...]}] with one object per spec
    with [id], [title], [paper_ref], [origin], [default_k], [incremental]
    and [reduction] booleans (plus the reduction's [parties] when it has
    one), plus [n]/[input_bits]/[cut] measured on the scratch family at
    [default_k]. *)
