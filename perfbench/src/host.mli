(** Host-speed correction.

    On a shared host the same code runs at different speeds from one
    second to the next.  A {!Perfbench_probe} call — fixed, memory-
    touching OCaml work — runs between operations about every 20 ms;
    each timed interval is then scaled by
    [(ref_ms / last_probe_ms) ** share], so a host that is slower right
    now stretches both the probe and the operation, and the two cancel.
    Probe time is never part of a timed interval.

    [share] is the part of the workloads' time that moves with the
    probe.  It is below 1 because the host's slow spells stretch the
    probe's tight loop more than they stretch the workloads, which also
    wait on memory and on the kernel: with the plain
    [ref_ms / last_probe_ms] correction a run made in a slow spell reads
    faster than one made in a fast spell.  [steady.py] prints, for each
    workload, the run-to-run spread of [ops_per_s] corrected with shares
    from 0.5 to 1; [share] is the one with the smallest mean spread over
    the workloads (README.md). *)

val ref_ms : float
(** The probe duration the corrected figures are expressed against — a
    constant, so corrected numbers from different runs and commits are
    comparable. *)

val share : float
(** [0.8], for every workload. *)

val correct : probe_ms:float -> float -> float
(** [correct ~probe_ms x] is [x *. (ref_ms /. probe_ms) ** share]. *)

type t

val create : unit -> t
(** Runs a first probe. *)

val probe : t -> unit
(** Run one probe now and make it the current one. *)

val tick : t -> unit
(** Probe when at least 20 ms have passed since the last probe ended;
    otherwise do nothing. *)

val factor : t -> float
(** [(ref_ms /. last_probe_ms) ** share]. *)

val last_ms : t -> float
(** The current probe duration. *)

val tally : t -> int * float
(** How many probes ran so far, and their summed duration in ms. *)

val probes : t -> float array
(** Every probe duration so far, in milliseconds, oldest first. *)
