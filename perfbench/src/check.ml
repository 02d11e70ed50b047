module Simulate = Ch_reduction.Simulate
module Bound = Ch_reduction.Bound
module Sweep = Ch_sweep.Sweep

let verdict ~expected v = v = expected

let transcript ~expected (t : Simulate.transcript) r =
  Bound.matches t r && t.Simulate.correct && t.Simulate.within_budget
  && t.Simulate.output = expected

let digest ~expected d = String.equal d expected

let fresh_sweep ~expected (o : Sweep.outcome) =
  o.Sweep.failures = 0
  && o.Sweep.verdicts = expected
  && o.Sweep.shards_completed = o.Sweep.shards_total
  && o.Sweep.shards_resumed = 0
  && o.Sweep.shards_recomputed = 0

let resumed_sweep ~fresh ~resumed (o : Sweep.outcome) =
  o.Sweep.failures = 0
  && o.Sweep.shards_recomputed = 0
  && o.Sweep.shards_resumed = resumed
  && o.Sweep.shards_resumed + o.Sweep.shards_completed = o.Sweep.shards_total
  && String.equal (Sweep.digest o.Sweep.verdicts) fresh
