(** The host-speed probe: a fixed amount of allocation-free work whose
    duration tracks how fast the host runs OCaml code right now.

    It shares no code with the measured library.  One call makes
    {!passes} read-modify-write passes over an L1-resident array of
    {!words} ints, about 1 ms on an idle core. *)

val words : int

val passes : int

val run : unit -> unit
(** One probe: [passes] passes over the array.  Allocates nothing. *)
