(** A work-stealing pool of OCaml 5 domains.

    Family verification is embarrassingly parallel: up to 2^K × 2^K
    independent input pairs, each requiring an exact NP-hard solve.  The
    pool fans such workloads out across domains while keeping every
    result bit-identical to a sequential run — work is split into
    index-ordered tasks up front, each task derives any randomness from
    its own index, and results are merged in task order, so the schedule
    never influences the answer.

    {b Sizing.}  The default worker count is [CH_JOBS] when that
    environment variable is set to a positive integer, otherwise
    {!Domain.recommended_domain_count}.  With one worker the pool runs
    every batch sequentially on the calling domain — no domains are
    spawned and no synchronization is performed, so [CH_JOBS=1] is an
    exact fallback for single-core machines (and the reference against
    which parallel runs are compared in tests and benchmarks).

    {b Scheduling.}  Each batch is partitioned round-robin into one
    slice per worker.  A worker drains its own slice front-to-back;
    when it runs dry it steals from the other slices back-to-front.
    Every task is claimed with a compare-and-set, so a task runs
    exactly once no matter how owners and thieves race.

    {b Exceptions.}  If tasks raise, the batch still drains (every task
    is either run or observed by the exception path), the workers
    survive, and the first exception observed is re-raised on the
    calling domain.  A failing batch therefore never deadlocks or
    poisons the pool.

    {b Re-entrancy.}  Calling {!run} (or anything built on it) from
    inside a pool task executes the nested batch sequentially on the
    current domain — nesting is safe but does not multiply
    parallelism. *)

type t

val jobs_from_env : unit -> int
(** [CH_JOBS] when set to a positive integer, otherwise
    {!Domain.recommended_domain_count} (always ≥ 1). *)

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] workers ([jobs_from_env ()] when omitted): the
    calling domain plus [jobs - 1] spawned domains.  Spawned workers
    idle on a condition variable between batches and are shut down at
    program exit. *)

val jobs : t -> int

val default : unit -> t
(** The process-wide shared pool, created on first use with
    [create ()].  The verification layer and the benchmark harness use
    this unless handed an explicit pool. *)

val once : (unit -> 'a) -> unit -> 'a
(** [once f] is a thunk returning [f ()], computed on the first call
    and shared by every later one.  Safe when domains or threads make
    their first calls at the same time (two concurrent forces of one
    [Lazy.t] raise [CamlinternalLazy.Undefined]): the first call runs
    [f] under a lock and the others wait for its value. *)

val run : t -> (int -> unit) list -> unit
(** [run pool tasks] executes every task exactly once, in parallel, and
    returns when all have finished.  Each task receives its own index.
    The first exception raised by any task is re-raised after the batch
    drains. *)

val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map], with the applications distributed over the pool.
    The result order is that of the input list, independent of the
    schedule. *)

val parallel_chunks :
  t -> ?chunk_size:int -> lo:int -> hi:int -> (int -> int -> 'a) -> 'a list
(** [parallel_chunks pool ~lo ~hi f] splits the half-open range
    [\[lo, hi)] into contiguous chunks, evaluates [f chunk_lo chunk_hi]
    for each in parallel, and returns the per-chunk results in range
    order.  [chunk_size] defaults to a value that yields roughly four
    chunks per worker, so stealing can rebalance uneven chunks. *)

val shutdown : t -> unit
(** Stop and join the spawned workers.  Idempotent; called
    automatically at exit for every pool still alive. *)
