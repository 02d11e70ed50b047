(** The family registry: one first-class catalog of every lower-bound
    family (Definition 1.1 instances) driving the bench, the CLI, the
    reduction sweeps and the tests.

    Each {!type-spec} packages a family's stable identity (CLI/bench id,
    human title, paper reference), its scale constructor ([k] ↦ scratch
    {!Framework.t}), the optional incremental descriptor, the Theorem 1.1
    reduction algorithm derived from the family's objective and goal,
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

type spec = private {
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
      (** [k] ↦ the Theorem 1.1 reduction algorithm, derived by {!spec}
          from the family's objective and goal *)
}

val spec :
  id:string ->
  title:string ->
  paper_ref:string ->
  origin:string ->
  default_k:int ->
  sweep_ks:int list ->
  ?incremental:(int -> Framework.incremental) ->
  ?partition:(int -> int array) ->
  (int -> Framework.t) ->
  spec
(** The spec of a family constructor ([k] ↦ the scratch family).  Its
    reduction is derived, not declared: when the family's objective
    reads an undirected graph or a digraph — what the gather uploads —
    the reduction at k runs that objective at the gather root
    ([rd_solver]) and accepts when the value meets the family's goal
    ([rd_accept]), over [partition k] when a partition is given (t
    inferred from it) and over the Alice/Bob side otherwise.  Objectives
    that read terminals or a root get no reduction.  The objective's
    kind is read from the family at [default_k]; only the solver and the
    goal outlive the family a reduction builds, so no core stays
    alive. *)

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
