module Framework = Ch_core.Framework
module Shard = Ch_sweep.Shard

(** The daemon's warm state: memoized verify results keyed by sweep plan,
    backed by the solver memo tables and (optionally) the sweep store.

    Three warmth tiers, hottest first:

    - {b response cache} — the full verify result (verdict digest,
      failure count, sidedness) held in memory under the plan key.  A
      repeat request is a hash lookup.
    - {b store blocks} — a single-shard verdict block written by a prior
      [hardness sweep --shards 1] run (or by this daemon's write-through)
      under the same {!Ch_sweep.Sweep.store_key}, so CLI sweeps and the
      daemon share artifacts.  The verdict stream is read back; derived
      figures are recomputed.
    - {b solver memo tables} — the [Cache] snapshot of each plan
      directory in the store, merged at startup ({!create}) and
      persisted at shutdown ({!persist}), so even a first-of-its-kind
      request skips the core-table build.

    The key ({!Ch_sweep.Sweep.store_key} with [shards = 1]) folds in the
    core's structural hash and every stream-shaping parameter but {e not}
    the engine: incremental and scratch engines promise bit-identical
    verdicts, so they share cache lines — which is itself a differential
    check, asserted by the tests. *)

type cached = {
  c_verdicts : bool array;
  c_failures : int;
  c_sided : bool;  (** Definition 1.1 sidedness spot-check result *)
  c_digest : string;  (** {!Ch_sweep.Sweep.digest} of [c_verdicts] *)
}

type t

val create : store_dir:string option -> t
(** With a store root, walk every plan directory and merge its memo
    snapshot, when valid, into the process-wide [Cache] (corrupt ones
    are skipped, not fatal). *)

val store_dir : t -> string option
(** The store root the registry was created with. *)

val tables_seeded : t -> int
(** Memo tables merged in by {!create}. *)

val entries : t -> int
(** Response-cache entries currently held. *)

val key : Framework.t -> mode:Shard.mode -> string
(** The response-cache / store key for one verify plan. *)

val claim : t -> key:string -> cached option
(** The response-cache entry for [key] (a hit), or [None]: the key is
    now claimed by the caller, who must {!release} it once its result is
    {!remember}ed or its run has failed.  While another caller holds the
    claim, this waits for its release and then reads the cache again, so
    concurrent identical requests share one cold run; after a failed run
    one waiter claims the key in turn. *)

val release : t -> key:string -> unit
(** Give up a claim from {!claim} and wake the callers waiting on it. *)

val find_block : t -> key:string -> total:int -> bool array option
(** The stored single-shard verdict block for the plan, when the store
    holds a valid one of the right length.  A miss creates nothing in
    the store. *)

val remember : ?write:bool -> t -> key:string -> cached -> unit
(** Publish into the response cache; with [write] (default true) also
    write the verdict block through to the store, where a later
    [hardness sweep --shards 1] of the same plan will resume from it. *)

val persist : t -> unit
(** Write the current [Cache] snapshot to the store (the memo
    snapshot of a dedicated ["serve"] plan directory), so the next
    daemon start — and any sweep pointed at the same store — begins
    warm.  No-op without a store. *)
