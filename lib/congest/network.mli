open Ch_graph

(** A synchronous CONGEST network simulator.

    Vertices run the same algorithm; in each round every vertex reads its
    inbox, updates its state, and sends at most one message per incident
    edge.  Message sizes are declared by the algorithm and checked against
    the bandwidth B(n) = [bandwidth_factor]·⌈log₂ n⌉ bits — the defining
    constraint of the model. *)

type ctx = {
  id : int;
  n : int;
  neighbors : int array;  (** sorted *)
  edge_weight : int -> int;  (** weight of the edge towards a neighbor *)
  vertex_weight : int;
  out_arcs : (int * int) array;
      (** on a directed network (see {!stepper_directed}): the vertex's
          out-arcs as sorted [(head, weight)] pairs — the orientation is
          local data while messages flow both ways over each arc's
          channel.  Empty on undirected networks. *)
  rng : Random.State.t Lazy.t;
      (** private per-vertex randomness, seeded from [(seed, v)] when
          first forced — algorithms that draw nothing never pay for it *)
}

type ('state, 'msg) algo = {
  name : string;
  init : ctx -> 'state;
  round : ctx -> round:int -> 'state -> (int * 'msg) list -> 'state * (int * 'msg) list;
      (** [round ctx ~round state inbox] returns the new state and the
          outbox as [(neighbor, message)] pairs.  The inbox lists
          [(sender, message)]. *)
  msg_bits : 'msg -> int;
  output : 'state -> int option;
      (** A vertex has terminated once its output is [Some _]. *)
}

type stats = {
  rounds : int;
  messages : int;
  total_bits : int;
  max_message_bits : int;
  bandwidth : int;
}

exception Bandwidth_exceeded of { algo : string; bits : int; bandwidth : int }

val bandwidth_for : ?factor:int -> int -> int
(** B(n) = factor·⌈log₂ n⌉, factor defaults to 8 (an "O(log n)-bit"
    message comfortably fits an edge id plus a weight). *)

(** {1 Stepwise execution}

    A {!stepper} runs the network one round at a time over a subset of
    the vertices (the [owns] predicate; everything by default).  This is
    the engine under {!run}/{!run_partitioned}/{!run_split}, and — with
    one partial stepper per party — under the Theorem 1.1 lockstep
    simulation in [Ch_reduction.Simulate]: a full run and any family of
    complementary partial runs execute bit-identically because they share
    this exact per-round semantics (per-vertex RNG seeded from
    [(seed, v)], inboxes delivered in ascending sender order, outbox
    validation and bandwidth checks at the sender, rounds counted per
    synchronous step). *)

type 'msg transfer = {
  t_sender : int;
  t_target : int;
  t_bits : int;  (** [algo.msg_bits t_msg], charged at the sender *)
  t_msg : 'msg;
}

type 'msg step_log = {
  log_round : int;  (** the 0-based round just executed *)
  internal : 'msg transfer list;
      (** messages delivered between owned vertices (read next round) *)
  outbound : 'msg transfer list;
      (** messages from owned vertices to unowned ones — cross traffic the
          driver must route (deliver via [step ~inject] on the peer) *)
  sent : bool;  (** some owned vertex sent this round *)
}

type ('state, 'msg) stepper

val stepper :
  ?seed:int ->
  ?bandwidth_factor:int ->
  ?owns:(int -> bool) ->
  Graph.t ->
  ('state, 'msg) algo ->
  ('state, 'msg) stepper
(** A fresh network at round 0.  Only owned vertices are initialized and
    simulated; unowned ones exist solely as message endpoints. *)

val comm_graph : Digraph.t -> Graph.t
(** The communication graph of a directed network: the underlying
    undirected graph ({!Digraph.to_undirected} — each arc is a
    bidirectional channel, antiparallel arcs share one). *)

val stepper_directed :
  ?seed:int ->
  ?bandwidth_factor:int ->
  ?owns:(int -> bool) ->
  Digraph.t ->
  ('state, 'msg) algo ->
  ('state, 'msg) stepper
(** Like {!stepper}, over a directed network: vertices communicate on
    {!comm_graph} while each [ctx.out_arcs] carries the vertex's local
    orientation, so an algorithm can upload or route along arcs. *)

val step : ?inject:'msg transfer list -> ('state, 'msg) stepper -> 'msg step_log
(** Execute one synchronous round: deliver [inject] (cross messages the
    peer emitted last round; targets must be owned), run every owned
    vertex on its inbox, validate and deliver the outboxes.  Messages to
    unowned targets are returned in [outbound] instead of delivered, but
    are validated, counted and bandwidth-checked exactly like internal
    ones.

    Cost: a step visits only the owned vertices (fixed when the stepper
    is made) and allocates little beyond what [algo.round] returns: an
    inbox entry and a transfer per message, a sorted copy of an inbox
    holding two or more messages, and the log.  A vertex's state is
    stored only when [round] returns a physically different one, so an
    idle vertex that hands its state back costs no write. *)

val stepper_round : ('state, 'msg) stepper -> int
(** Rounds executed so far. *)

val stepper_bandwidth : ('state, 'msg) stepper -> int

val stepper_owns : ('state, 'msg) stepper -> int -> bool

val stepper_output : ('state, 'msg) stepper -> int -> int option
(** Output of an owned vertex.  @raise Invalid_argument when unowned. *)

val stepper_all_output : ('state, 'msg) stepper -> bool
(** Every owned vertex has produced an output. *)

val stepper_stats : ('state, 'msg) stepper -> stats
(** Counters over messages {e sent} by owned vertices (internal and
    outbound); for a full stepper this equals the {!run} stats. *)

val default_max_rounds : Graph.t -> int
(** The [20·n + 10·m + 100] divergence guard {!run} uses by default. *)

(** {1 Whole-network runs} *)

val run :
  ?seed:int ->
  ?bandwidth_factor:int ->
  ?max_rounds:int ->
  Graph.t ->
  ('state, 'msg) algo ->
  'state array * stats
(** Runs until every vertex has produced an output and no message is in
    flight, or [max_rounds] (default {!default_max_rounds}) elapses —
    exceeding it raises [Failure]. *)

val run_directed :
  ?seed:int ->
  ?bandwidth_factor:int ->
  ?max_rounds:int ->
  Digraph.t ->
  ('state, 'msg) algo ->
  'state array * stats
(** {!run} over {!stepper_directed}. *)

(** {1 Partitioned runs}

    The t-party generalization of the Alice/Bob split: a partition
    assigns every vertex a part id in [0..t-1]; the network is executed
    as t lockstep partial steppers, one per part, and every message
    crossing parts is accounted against its ordered (sender part,
    target part) pair.  The t=2 instance is exactly {!run_split}. *)

val partition_of_side : bool array -> int array
(** The 2-part partition of a [side] array: [true] (Alice) is part 0,
    [false] (Bob) part 1. *)

val partition_parts : int array -> int
(** The number of parts t of a partition, validating that part ids are
    non-negative and every part in [0..t-1] is inhabited.
    @raise Invalid_argument on an empty part or a negative id. *)

type part_stats = {
  p_parts : int;
  p_stats : stats;  (** merged over the parts; equals the {!run} stats *)
  p_cross_bits : int;  (** total bits crossing the multicut *)
  p_cross_messages : int;
  p_pair_bits : int array array;
      (** [p_pair_bits.(p).(q)] = bits sent from part p to part q *)
  p_pair_messages : int array array;
}

val run_partitioned :
  ?seed:int ->
  ?bandwidth_factor:int ->
  ?max_rounds:int ->
  partition:int array ->
  Graph.t ->
  ('state, 'msg) algo ->
  'state array * part_stats
(** Run the network as one partial stepper per part, bit-identical to
    {!run} (states, rounds, message volumes), with per-part-pair cross
    traffic accounting.
    @raise Invalid_argument on an invalid partition (see
    {!partition_parts}). *)

val run_directed_partitioned :
  ?seed:int ->
  ?bandwidth_factor:int ->
  ?max_rounds:int ->
  partition:int array ->
  Digraph.t ->
  ('state, 'msg) algo ->
  'state array * part_stats
(** {!run_partitioned} over {!stepper_directed}. *)

type cut_stats = { stats : stats; cut_bits : int; cut_messages : int }

val run_split :
  ?seed:int ->
  ?bandwidth_factor:int ->
  ?max_rounds:int ->
  side:bool array ->
  Graph.t ->
  ('state, 'msg) algo ->
  'state array * cut_stats
(** Like {!run} but also counts the bits carried by messages crossing the
    [side] partition — exactly what Alice and Bob must exchange to
    simulate the algorithm in the Theorem 1.1 reduction.  A thin wrapper
    over {!run_partitioned} at t=2 via {!partition_of_side}. *)

val run_directed_split :
  ?seed:int ->
  ?bandwidth_factor:int ->
  ?max_rounds:int ->
  side:bool array ->
  Digraph.t ->
  ('state, 'msg) algo ->
  'state array * cut_stats
(** {!run_split} over {!stepper_directed} — the two-party split of a
    directed construction (Hamiltonian families). *)
