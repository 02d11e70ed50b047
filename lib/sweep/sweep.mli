module Framework = Ch_core.Framework
module Pool = Ch_core.Pool

(** Sharded, resumable verdict sweeps.

    A sweep partitions a family's pair space into {!Shard} ranges, fans
    them out over the {!Pool} domains (and optionally over forked worker
    processes), and merges the per-shard verdict blocks in shard order —
    so the merged stream is bit-identical to
    {!Framework.exhaustive_verdicts} / {!Framework.sampled_verdicts} for
    any worker count, any schedule, and any resume point.  With a store
    directory, finished shards and the solver memo tables persist across
    runs: an interrupted sweep resumes by loading every valid block and
    computing only the rest, and a corrupt block (checksum failure) is
    reported and recomputed, never merged.

    {b Telemetry:} the parent bumps [sweep.shards.completed] (computed
    this run), [sweep.shards.resumed] (loaded from the store),
    [sweep.shards.recomputed] (computed where a corrupt artifact sat)
    and [sweep.store.corrupt] (corrupt artifacts detected) exactly once
    per run, so the counters are schedule- and worker-independent.
    Forked workers do not lose their telemetry either: each worker
    resets the state it inherited from the fork, and writes an
    {!Ch_obs.Obs.Snapshot} of its own counters, histograms and span tree
    into the store before [_exit]; the parent absorbs every worker
    snapshot right after [waitpid] and removes it (a resume must not
    re-absorb finished work).  Coordinator totals under [procs > 1] are
    therefore bit-identical to a single-process run of the same plan. *)

type outcome = {
  verdicts : bool array;  (** the merged stream, one cell per pair index *)
  failures : int;  (** pairs where the verdict differs from f(x,y) *)
  shards_total : int;
  shards_completed : int;
  shards_resumed : int;
  shards_recomputed : int;  (** subset of [shards_completed] *)
  artifacts_corrupt : int;  (** corrupt blocks + corrupt memo snapshots *)
  tables_restored : int;  (** memo tables merged in from store snapshots *)
}

exception Interrupted of int
(** Raised by a faulted run after the batch drains: the payload is the
    number of shards this run computed (and, with a store, persisted)
    before stopping.  Resume by re-running against the same store. *)

val store_key : Framework.t -> mode:Shard.mode -> shards:int -> string
(** The store sub-directory for one plan:
    [<core structural hash>-<digest of (name, params, K, mode, total,
    shards)>].  Content-addressed on the all-zeros core
    ({!Ch_graph.Props.structural_hash} — by Definition 1.1 the core is
    the same for every pair) plus every parameter that shapes the
    stream, so a resumed run either finds artifacts of the identical
    plan or a fresh directory, never a near-miss. *)

val run :
  ?pool:Pool.t ->
  ?procs:int ->
  ?store_dir:string ->
  ?fault_after:int ->
  ?should_stop:(unit -> bool) ->
  Framework.t ->
  mode:Shard.mode ->
  shards:int ->
  outcome
(** Run (or resume) a sweep cut into [shards] shards.

    [store_dir] is the store root; without it the sweep is scratch-only
    (nothing persisted, nothing resumed).  [procs > 1] forks that many
    worker processes, each computing an interleaved slice of the pending
    shards sequentially and exiting without running [at_exit] (the
    inherited domain pool belongs to the parent); it requires a store,
    which is how the workers hand their blocks back.  Shards a crashed
    worker never wrote are recomputed by the parent, so a sweep
    completes as long as the parent survives.  The OCaml 5 runtime
    forbids [Unix.fork] once other domains have been created, so a
    multi-process sweep must come before any multi-domain pool use in
    its process; [run] itself only touches a pool on the [procs = 1]
    path.

    [fault_after:s] is the crash-injection hook: the run computes (and
    persists) exactly the first [s] pending shards in plan order, skips
    the rest, and raises {!Interrupted} — on a pool of any width, since
    a shard is skipped by its position, not by a count of finished
    shards.  Under [procs > 1] each worker stops after [s] shards and
    the parent skips its recompute fallback, simulating killed workers.

    [should_stop] is the cooperative-interrupt hook (the CLI points it
    at its SIGINT/SIGTERM flag): polled before each shard on the
    single-process path and before each parent-side recompute — in-flight
    shards finish and persist, later ones are skipped, the run raises
    {!Interrupted}, and a rerun against the same store resumes where the
    signal landed.

    @raise Invalid_argument on [procs < 1], [procs > 1] without
    [store_dir], or a plan outside the {!Shard} limits. *)

val oracle : ?pool:Pool.t -> Framework.t -> mode:Shard.mode -> bool array
(** The single-process from-scratch stream the sweep must reproduce:
    {!Framework.exhaustive_verdicts} or {!Framework.sampled_verdicts}. *)

val digest : bool array -> string
(** MD5 hex of the stream (as its ['0']/['1'] rendering) — what the CLI
    prints and the resume smoke diffs. *)
