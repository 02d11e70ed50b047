(** The correctness checks every timed operation passes through.  A
    check that fails counts the operation as failed and fails the run. *)

module Simulate = Ch_reduction.Simulate
module Sweep = Ch_sweep.Sweep

val verdict : expected:bool -> bool -> bool
(** A verdict equals [f x y]. *)

val transcript :
  expected:bool -> Simulate.transcript -> Simulate.reference -> bool
(** The transcript equals its oracle run ([Bound.matches]), decides
    [f x y] correctly, and stays within the Theorem 1.1 budget. *)

val digest : expected:string -> string -> bool

val fresh_sweep : expected:bool array -> Sweep.outcome -> bool
(** A sweep on an empty store computed every shard, found no failures,
    and merged to [expected], the [f x y] of every pair. *)

val resumed_sweep : fresh:string -> resumed:int -> Sweep.outcome -> bool
(** A resumed sweep found no failures, recomputed nothing, loaded
    exactly [resumed] shards from the store and merged to the stream of
    the fresh run, whose digest is [fresh]. *)
