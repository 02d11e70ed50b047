(** The closed loop: one caller runs a fixed cycle of steps back to
    back, each starting when the previous one has returned.

    The loop stops at the first cycle boundary at which [seconds] of
    wall time have passed, at least [min_ops] operations were timed and
    at least [min_cycles] cycles ran,
    so every run is made of whole cycles and the class shares of the
    timed operations are exactly those of the cycle.  Each cycle starts
    with an untimed [Gc.full_major], so no cycle pays for the previous
    one's garbage. *)

type step =
  | Op of int * (unit -> bool)
      (** a timed operation of the given class: one latency sample,
          counted in busy time; [false] means its check failed *)
  | Busy of (unit -> bool)
      (** timed into busy time but not an operation (a plan's
          preparation) *)
  | Aside of (unit -> bool)
      (** untimed bookkeeping between operations *)

type result = {
  ops : int;
  failed : int;  (** steps whose check failed or that raised *)
  cycles : int;
  wall_s : float;
  cycle_busy_s : float array;  (** host-corrected busy time of each cycle *)
  cycle_raw_s : float array;  (** raw busy time of each cycle *)
  cycle_probe_ms : float array;
      (** mean duration of the probes that ran during each cycle *)
  samples : samples;
}

and samples
(** Per-operation latencies, kept off the OCaml heap in memory that is
    only touched as it fills, so the process's peak RSS grows by a few
    bytes per operation instead of in doubling steps. *)

val run :
  host:Host.t ->
  seconds:float ->
  ?min_ops:int ->
  ?min_cycles:int ->
  ?on_cycle:(int -> unit) ->
  step array ->
  result
(** [on_cycle c] runs, untimed, after cycle [c] (from 1) ends.
    [min_ops] defaults to 1000, so at least 10 latency samples lie
    beyond the p99; [min_cycles] defaults to 1. *)

val rate : result -> float
(** Operations per second of host-corrected busy time: the median over
    cycles, each cycle being the same work, so a stall in one cycle
    moves the figure by one rank, not by its length. *)

val rate_raw : result -> float

val latencies : result -> float array
(** Host-corrected latencies in milliseconds, in run order. *)

val raw_latencies : result -> float array

val class_latencies : result -> int -> float array
(** The corrected latencies of one class. *)
