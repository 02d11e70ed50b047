(** Order statistics over samples. *)

val quantile : float array -> float -> float
(** [quantile xs q]: the nearest-rank [q]-quantile, the smallest sample
    with at least [ceil (q * n)] samples at or below it.  [nan] on an
    empty array.  Sorts a copy. *)

val median : float array -> float

val beyond : int -> float -> int
(** [beyond n q]: how many of [n] samples rank above the nearest-rank
    [q]-quantile. *)
