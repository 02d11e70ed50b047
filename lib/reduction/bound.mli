open Ch_cc
open Ch_core

(** Empirical lower-bound sweeps over input pairs.

    {!sweep} runs the lockstep simulation and its [run_split] oracle on
    every pair, differences them, and derives the family's empirical
    Theorem 1.1 figure Ω(CC(f)/(|E_cut|·log n)) from the measured cut
    size and bandwidth plus the known CC bound (CC(DISJ_K) ≥ K;
    deterministic CC(EQ_K) = K + 1). *)

type row = {
  bx : Bits.t;
  by : Bits.t;
  bt : Simulate.transcript;
  br : Simulate.reference;
  bmatch : bool;
      (** cut bits, cut messages, rounds and answer all equal the oracle *)
}

type report = {
  rep_name : string;
  rep_n : int;
  rep_input_bits : int;  (** K *)
  rep_parties : int;  (** t — 2 unless the family registered a partition *)
  rep_cut : int;  (** measured |multicut| (= |E_cut| at t=2) *)
  rep_bandwidth : int;  (** B *)
  rep_pairs : int;
  rep_rounds_max : int;
  rep_cut_bits_max : int;
  rep_budget_max : int;
  rep_bits_per_round : float;  (** mean over pairs of cut_bits/rounds *)
  rep_cc_bits : int;  (** the CC(f) lower bound invoked *)
  rep_lb_rounds : float;  (** CC(f)/(|E_cut|·log₂ n) *)
  rep_all_correct : bool;
  rep_all_match : bool;  (** transcript ≡ run_split on every pair *)
  rep_all_within_budget : bool;
}

val cc_bits : input_bits:int -> [ `Disj | `Eq ] -> int

val connected_pairs :
  Framework.t -> (Bits.t * Bits.t) list -> (Bits.t * Bits.t) list * int
(** Drop pairs whose instance fails {!Framework.connected} — outside the
    CONGEST model; {!Simulate.lockstep} rejects them.  Also returns how
    many were dropped, so sweeps can report rather than silently shrink. *)

val matches : Simulate.transcript -> Simulate.reference -> bool

val sweep :
  ?trace:Trace.sink ->
  Simulate.spec ->
  (Bits.t * Bits.t) list ->
  row list * report

val report_json :
  ?id:(string * Ch_json.Jsonx.t) list -> report -> Ch_json.Jsonx.t
(** The report as one JSON object: the caller's identifying [id] fields
    first, then [pairs], [n], [input_bits] (K), [parties] (t), [cut],
    [bandwidth] (B), the [*_max] figures, [bits_per_round], [cc_bits],
    [lb_rounds] and the three flags [transcript_differential_ok]
    ([rep_all_match]), [decisions_ok] ([rep_all_correct]) and
    [within_budget].  The bench's reduction entries and the serve
    [reduction] payload are this object. *)

val sweep_registry :
  ?trace:Trace.sink ->
  ?seed:int ->
  ?bandwidth_factor:int ->
  ?exhaustive:bool ->
  ?samples:int ->
  Registry.spec ->
  k:int ->
  (row list * report * int) option
(** The registry-driven sweep: compile a catalog spec's reduction at
    scale [k] via {!Simulate.registry_spec}, walk the pair space
    ({!Ch_core.Pairs.Exhaustive} when [exhaustive], with K ≤ 5; else
    [Pairs.Sampled] with [seed], 41 by default, and [samples]), drop
    disconnected pairs, and sweep.
    Returns the rows, the report and the dropped-pair count; [None]
    when the spec registers no reduction. *)

(** {1 Benchmark shims}

    The benchmark ([perfbench/]) and the reduction tests build their pair
    lists with these two one-line lists of {!Ch_core.Pairs}, kept until
    the next change to the benchmark moves onto [Pairs] directly;
    {!sweep_registry} does not call them. *)

val exhaustive_pairs : Framework.t -> (Bits.t * Bits.t) list
(** Every index of {!Ch_core.Pairs.Exhaustive}.
    @raise Invalid_argument when [K > 5] — the reduction sweep's cost
    limit, which {!sweep_registry} applies too. *)

val sampled_pairs : Framework.t -> seed:int -> samples:int -> (Bits.t * Bits.t) list
(** Every index of [Pairs.Sampled { seed; samples }]: the corners, then
    [samples] seeded draws. *)
