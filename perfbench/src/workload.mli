(** What every workload provides to [main.ml]. *)

type ctx = {
  seed : int;  (** the run's seed: every input is derived from it *)
  host : Host.t;
  dir : string;  (** this run's scratch directory, removed at exit *)
  traced : bool;
      (** record per-layer spans and timings; end-to-end figures never
          come from a traced instance *)
  inject : bool;
      (** corrupt one answer before it is checked — the benchmark's own
          tests use this to show that each workload fails on a wrong
          answer *)
}

type instance = {
  steps : Loop.step array;  (** one cycle of the fixed op sequence *)
  classes : string array;  (** class names, by [Loop.Op] class id *)
  first_cycle : unit -> unit;
      (** called once the first cycle ends: snapshot the per-cycle
          counts, which are exact for a given seed *)
  layers : Loop.result -> (string * float) list;
      (** per-layer metrics of a traced instance *)
  stop : unit -> unit;  (** release pools and caches, remove files *)
}

type t = {
  name : string;
  setup : ctx -> instance;
}

val shuffle : int -> 'a array -> 'a array
(** A seeded Fisher–Yates shuffle of a copy. *)

val rm_rf : string -> unit
