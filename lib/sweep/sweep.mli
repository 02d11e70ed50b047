module Framework = Ch_core.Framework
module Pairs = Ch_core.Pairs
module Pool = Ch_core.Pool

(** Sharded, resumable verdict sweeps.

    A sweep partitions a family's pair space ({!Ch_core.Pairs}) into
    {!Shard} ranges, computes each shard with the scratch engine's
    [Framework.verdicts ~range:(lo, hi)], fans the shards out over the
    {!Pool} domains, and merges the per-shard verdict blocks in shard
    order — so the merged stream is bit-identical to one
    [Framework.verdicts] run over the whole mode for any pool width, any
    schedule, and any resume point.  With a store directory, finished
    shards and the solver memo tables persist across runs: an
    interrupted sweep resumes by loading every valid block and computing
    only the rest, and a corrupt block (checksum failure) is reported and
    recomputed, never merged.

    {b Telemetry:} [run] bumps [sweep.shards.completed] (computed this
    run), [sweep.shards.resumed] (loaded from the store),
    [sweep.shards.recomputed] (computed where a corrupt artifact sat)
    and [sweep.store.corrupt] (corrupt artifacts detected) exactly once,
    after the compute pass, so the counters are schedule- and
    width-independent. *)

type outcome = {
  verdicts : bool array;  (** the merged stream, one cell per pair index *)
  failures : int;  (** pairs where the verdict differs from f(x,y) *)
  shards_total : int;
  shards_completed : int;
  shards_resumed : int;
  shards_recomputed : int;  (** subset of [shards_completed] *)
  artifacts_corrupt : int;  (** corrupt blocks + a corrupt memo snapshot *)
  tables_restored : int;  (** memo tables merged in from the store's snapshot *)
}

exception Interrupted of int
(** Raised by a faulted run after the batch drains: the payload is the
    number of shards this run computed (and, with a store, persisted)
    before stopping.  Resume by re-running against the same store. *)

val store_key : Framework.t -> mode:Pairs.mode -> shards:int -> string
(** The store sub-directory for one plan:
    [<core structural hash>-<digest of (name, params, K, mode, total,
    shards)>].  Content-addressed on the all-zeros core
    ({!Ch_graph.Props.structural_hash} — by Definition 1.1 the core is
    the same for every pair) plus every parameter that shapes the
    stream, so a resumed run either finds artifacts of the identical
    plan or a fresh directory, never a near-miss. *)

val run :
  ?pool:Pool.t ->
  ?store_dir:string ->
  ?fault_after:int ->
  ?should_stop:(unit -> bool) ->
  Framework.t ->
  mode:Pairs.mode ->
  shards:int ->
  outcome
(** Run (or resume) a sweep cut into [shards] shards, computing the
    pending ones in one pass over [pool] (default {!Pool.default}, whose
    width [CH_JOBS] sets).

    [store_dir] is the store root; without it the sweep is scratch-only
    (nothing persisted, nothing resumed).  With it, each shard's block
    is written as soon as it is computed, and a run that computed any
    shard writes the plan's memo snapshot once every shard is in.

    [fault_after:s] is the crash-injection hook: the run computes (and
    persists) exactly the first [s] pending shards in plan order, skips
    the rest, and raises {!Interrupted} — on a pool of any width, since
    a shard is skipped by its position, not by a count of finished
    shards.

    [should_stop] is the cooperative-interrupt hook (the CLI points it
    at its SIGINT/SIGTERM flag), polled before each shard: in-flight
    shards finish and persist, later ones are skipped, the run raises
    {!Interrupted}, and a rerun against the same store resumes where the
    signal landed.

    @raise Invalid_argument on a mode {!Ch_core.Pairs.total} rejects or
    a plan outside the {!Shard} limits. *)

val digest : bool array -> string
(** MD5 hex of the stream (as its ['0']/['1'] rendering) — what the CLI
    prints and the resume smoke diffs. *)
