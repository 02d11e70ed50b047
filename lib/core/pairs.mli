open Ch_cc

(** The input-pair space of a family with K-bit inputs: Definition 1.1
    ranges over every (x, y) ∈ \{0,1\}^K × \{0,1\}^K.  A {!mode} names a
    slice of that space as the index range [\[0, total)], and {!pair_at}
    maps an index to its pair as a pure function of the mode and the
    index — no shared RNG stream — so any chunk, shard or worker can
    regenerate its own slice.  The verification engine, the sweep store,
    the reduction sweeps, the daemon and the CLI all walk the space
    through this module. *)

type mode =
  | Exhaustive
      (** all 2^K × 2^K pairs: index [p] is [(xs.(p / 2^K), xs.(p mod
          2^K))] with [xs] the strings of {!Bits.all} *)
  | Sampled of { seed : int; samples : int }
      (** indices 0–3 are the corners (0, 0), (1, 1), (1, 0) and (0, 1)
          (all-zeros / all-ones strings); index [4 + i] is the pair drawn
          from seeds [(seed + 2i, seed + 2i + 1)].  Sampling is with
          replacement: indices may draw the same pair, and every index
          counts. *)

val total : k:int -> mode -> int
(** The number of indices [mode] spans over K = [k] bits: [2^2K] or
    [samples + 4].  The one input guard of the pair space.
    @raise Invalid_argument when exhaustive with [k > 10], on negative
    [samples], or above 2^25 − 1 (the sweep store's shard-index limit). *)

val pair_at : k:int -> mode -> int -> Bits.t * Bits.t
(** The pair at an index.  Partially apply [pair_at ~k mode] once per
    chunk: the exhaustive input table is built there, and each index is
    then a lookup or two seeded draws.  Indices are not range-checked. *)
