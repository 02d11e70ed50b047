open Ch_cc

type mode = Exhaustive | Sampled of { seed : int; samples : int }

(* the sweep store packs a pair index into 25 bits (Shard.max_pairs) *)
let max_total = (1 lsl 25) - 1

let total ~k mode =
  let t =
    match mode with
    | Exhaustive ->
        if k > 10 then invalid_arg "Pairs.total: K > 10";
        1 lsl (2 * k)
    | Sampled { samples; _ } ->
        if samples < 0 then invalid_arg "Pairs.total: negative samples";
        samples + 4
  in
  if t > max_total then invalid_arg "Pairs.total: pair space too large";
  t

let pair_at ~k = function
  | Exhaustive ->
      let inputs = Array.of_list (Bits.all k) in
      let n = Array.length inputs in
      fun p -> (inputs.(p / n), inputs.(p mod n))
  | Sampled { seed; _ } -> (
      fun i ->
        match i with
        | 0 -> (Bits.zeros k, Bits.zeros k)
        | 1 -> (Bits.ones k, Bits.ones k)
        | 2 -> (Bits.ones k, Bits.zeros k)
        | 3 -> (Bits.zeros k, Bits.ones k)
        | i ->
            let s = seed + (2 * (i - 4)) in
            (Bits.random ~seed:s k, Bits.random ~seed:(s + 1) k))
