(** Per-layer measurement from outside the library: host-corrected
    timings of calls into a layer's public functions, recorded under
    benchmark-owned {!Ch_obs.Obs} spans, and reads of the counters
    [lib/obs] already keeps. *)

module Obs = Ch_obs.Obs

type acc
(** A running sum of host-corrected durations, in milliseconds. *)

val acc : unit -> acc
val add : acc -> float -> unit
val count : acc -> int

val total_ms : acc -> float

val mean_ms : acc -> float
(** [0.] when empty. *)

val mean_us : acc -> float

val timed : Host.t -> Obs.span -> acc -> (unit -> 'a) -> 'a
(** Run the thunk under the span and add its corrected duration. *)

val counter : Obs.report -> string -> int
(** A counter's value; [0] when it was never interned. *)

val counter_sum : Obs.report -> prefix:string -> suffix:string -> int
(** Sum of the counters named [prefix ^ _ ^ suffix]. *)

val peak_rss_kb : unit -> int
(** This process's VmHWM from [/proc/self/status]; [0] when unreadable. *)
