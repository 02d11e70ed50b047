module Obs = Ch_obs.Obs

let ref_ms = 1.0
let share = 0.8
let interval_ns = 20_000_000L
let correct ~probe_ms x = x *. ((ref_ms /. probe_ms) ** share)

type t = {
  mutable last_ms : float;
  mutable factor : float;
  mutable last_end : int64;
  mutable history : float list;
  mutable n : int;
  mutable sum : float;
}

let probe t =
  let t0 = Obs.Clock.now_ns () in
  Perfbench_probe.run ();
  let t1 = Obs.Clock.now_ns () in
  let ms = Float.max (Int64.to_float (Int64.sub t1 t0) /. 1e6) 1e-6 in
  t.last_ms <- ms;
  t.factor <- correct ~probe_ms:ms 1.;
  t.last_end <- t1;
  t.history <- ms :: t.history;
  t.n <- t.n + 1;
  t.sum <- t.sum +. ms

let create () =
  let t =
    { last_ms = ref_ms; factor = 1.; last_end = 0L; history = []; n = 0; sum = 0. }
  in
  probe t;
  t

let tick t =
  if Int64.sub (Obs.Clock.now_ns ()) t.last_end >= interval_ns then probe t

let factor t = t.factor
let last_ms t = t.last_ms
let tally t = (t.n, t.sum)
let probes t = Array.of_list (List.rev t.history)
