open Ch_graph
module Obs = Ch_obs.Obs

(* Per-round traffic accounting in the spirit of the paper's Theorem 1.1
   budget line: every simulated round bumps the round counter and adds
   its message/bit volume to the totals and the per-round histograms. *)
let c_rounds = Obs.counter "congest.rounds"
let c_messages = Obs.counter "congest.messages"
let c_bits = Obs.counter "congest.bits"
let h_round_messages = Obs.histogram "congest.round_messages"
let h_round_bits = Obs.histogram "congest.round_bits"

type ctx = {
  id : int;
  n : int;
  neighbors : int array;
  edge_weight : int -> int;
  vertex_weight : int;
  out_arcs : (int * int) array;
  rng : Random.State.t Lazy.t;
}

type ('state, 'msg) algo = {
  name : string;
  init : ctx -> 'state;
  round : ctx -> round:int -> 'state -> (int * 'msg) list -> 'state * (int * 'msg) list;
  msg_bits : 'msg -> int;
  output : 'state -> int option;
}

type stats = {
  rounds : int;
  messages : int;
  total_bits : int;
  max_message_bits : int;
  bandwidth : int;
}

exception Bandwidth_exceeded of { algo : string; bits : int; bandwidth : int }

let bandwidth_for ?(factor = 8) n =
  let rec log2_ceil acc v = if v <= 1 then max acc 1 else log2_ceil (acc + 1) ((v + 1) / 2) in
  factor * log2_ceil 0 n

(* Few algorithms draw randomness, so a vertex's generator is seeded
   from [(seed, v)] only when first forced: every draw is the one an
   eagerly seeded generator would give. *)
let make_ctx ~seed ~out_arcs g v =
  {
    id = v;
    n = Graph.n g;
    neighbors = Array.of_list (Graph.neighbors g v);
    edge_weight = (fun u -> Graph.edge_weight g v u);
    vertex_weight = Graph.vweight g v;
    out_arcs = out_arcs v;
    rng = lazy (Random.State.make [| seed; v |]);
  }

(* ---- stepwise execution --------------------------------------------- *)

type 'msg transfer = { t_sender : int; t_target : int; t_bits : int; t_msg : 'msg }

type 'msg step_log = {
  log_round : int;
  internal : 'msg transfer list;
  outbound : 'msg transfer list;
  sent : bool;
}

(* Per-vertex data lives at the vertex's index in [sp_owned] (ascending
   vertex ids); [sp_slot] maps a vertex back to that index, or -1 when
   the vertex is unowned.  Inboxes are indexed by vertex id. *)
type ('state, 'msg) stepper = {
  sp_g : Graph.t;
  sp_algo : ('state, 'msg) algo;
  sp_owned : int array;
  sp_slot : int array;
  sp_ctxs : ctx array;
  sp_states : 'state array;
  sp_outboxes : (int * 'msg) list array;  (* empty between steps *)
  sp_inboxes : (int * 'msg) list array;
  sp_seen : int array;  (* duplicate-target marks, see [check_outbox] *)
  sp_bandwidth : int;
  mutable sp_round : int;
  mutable sp_messages : int;
  mutable sp_total_bits : int;
  mutable sp_max_bits : int;
}

let stepper_gen ?(seed = 0) ?bandwidth_factor ?owns ~out_arcs g algo =
  let n = Graph.n g in
  let owned =
    match owns with
    | None -> Array.init n Fun.id
    | Some f -> Array.of_list (List.filter f (List.init n Fun.id))
  in
  let slot = Array.make n (-1) in
  Array.iteri (fun i v -> slot.(v) <- i) owned;
  let ctxs = Array.map (make_ctx ~seed ~out_arcs g) owned in
  {
    sp_g = g;
    sp_algo = algo;
    sp_owned = owned;
    sp_slot = slot;
    sp_ctxs = ctxs;
    sp_states = Array.map algo.init ctxs;
    sp_outboxes = Array.make (Array.length owned) [];
    sp_inboxes = Array.make n [];
    sp_seen = Array.make n (-1);
    sp_bandwidth = bandwidth_for ?factor:bandwidth_factor n;
    sp_round = 0;
    sp_messages = 0;
    sp_total_bits = 0;
    sp_max_bits = 0;
  }

let stepper ?seed ?bandwidth_factor ?owns g algo =
  stepper_gen ?seed ?bandwidth_factor ?owns ~out_arcs:(fun _ -> [||]) g algo

(* A digraph network communicates over its underlying undirected graph
   (an arc is a channel in both directions, as in the paper's directed
   constructions); the orientation itself is data, exposed to each
   vertex as its sorted out-arc list. *)
let comm_graph dg = Digraph.to_undirected dg

let stepper_directed ?seed ?bandwidth_factor ?owns dg algo =
  stepper_gen ?seed ?bandwidth_factor ?owns
    ~out_arcs:(fun v -> Array.of_list (Digraph.succ_w dg v))
    (comm_graph dg) algo

let stepper_round t = t.sp_round

let stepper_bandwidth t = t.sp_bandwidth

let stepper_owns t v = t.sp_slot.(v) >= 0

let owned_state t v =
  let i = t.sp_slot.(v) in
  if i < 0 then invalid_arg "Network.stepper: vertex not owned";
  t.sp_states.(i)

let stepper_output t v = t.sp_algo.output (owned_state t v)

let stepper_all_output t =
  Array.for_all (fun st -> t.sp_algo.output st <> None) t.sp_states

let stepper_stats t =
  {
    rounds = t.sp_round;
    messages = t.sp_messages;
    total_bits = t.sp_total_bits;
    max_message_bits = t.sp_max_bits;
    bandwidth = t.sp_bandwidth;
  }

(* The sender-side guards on one outbox: every target adjacent, then at
   most one message per edge.  [distinct] marks each target with [stamp]
   (unique to this sender and round) in [sp_seen]; an outbox of fewer
   than two messages cannot repeat a target, so it skips that pass. *)
let rec check_adjacent t v = function
  | [] -> ()
  | (target, _) :: rest ->
      if not (Graph.mem_edge t.sp_g v target) then
        failwith
          (Printf.sprintf "Network.run: %S sent %d -> %d but they are not adjacent"
             t.sp_algo.name v target);
      check_adjacent t v rest

let rec distinct t stamp = function
  | [] -> true
  | (target, _) :: rest ->
      t.sp_seen.(target) <> stamp
      && begin
           t.sp_seen.(target) <- stamp;
           distinct t stamp rest
         end

let check_outbox t v ~stamp outbox =
  check_adjacent t v outbox;
  match outbox with
  | [] | [ _ ] -> ()
  | _ :: _ :: _ ->
      if not (distinct t stamp outbox) then
        failwith
          (Printf.sprintf "Network.run: %S sent two messages on one edge" t.sp_algo.name)

(* Drain the outboxes from slot [i] on, in ascending sender order and
   outbox order: bandwidth check and counters at the sender, delivery to
   owned targets, the transfers accumulated in reverse. *)
let rec dispatch t i internal outbound =
  if i = Array.length t.sp_owned then (internal, outbound)
  else
    match t.sp_outboxes.(i) with
    | [] -> dispatch t (i + 1) internal outbound
    | (target, msg) :: rest ->
        t.sp_outboxes.(i) <- rest;
        let algo = t.sp_algo and sender = t.sp_owned.(i) in
        let bits = algo.msg_bits msg in
        if bits > t.sp_bandwidth then
          raise (Bandwidth_exceeded { algo = algo.name; bits; bandwidth = t.sp_bandwidth });
        t.sp_messages <- t.sp_messages + 1;
        t.sp_total_bits <- t.sp_total_bits + bits;
        t.sp_max_bits <- max t.sp_max_bits bits;
        let tr = { t_sender = sender; t_target = target; t_bits = bits; t_msg = msg } in
        if t.sp_slot.(target) >= 0 then begin
          t.sp_inboxes.(target) <- (sender, msg) :: t.sp_inboxes.(target);
          dispatch t i (tr :: internal) outbound
        end
        else dispatch t i internal (tr :: outbound)

(* [List.sort] allocates its merge closures on every call, even on a
   list too short to sort, so [step] calls it only on two messages or
   more. *)
let by_sender (a, _) (b, _) = compare (a : int) b

let step ?(inject = []) t =
  let n = Graph.n t.sp_g in
  List.iter
    (fun tr ->
      if tr.t_target < 0 || tr.t_target >= n || t.sp_slot.(tr.t_target) < 0 then
        invalid_arg "Network.step: injected message targets an unowned vertex";
      t.sp_inboxes.(tr.t_target) <- (tr.t_sender, tr.t_msg) :: t.sp_inboxes.(tr.t_target))
    inject;
  let round = t.sp_round in
  let messages0 = t.sp_messages and bits0 = t.sp_total_bits in
  for i = 0 to Array.length t.sp_owned - 1 do
    let v = t.sp_owned.(i) in
    (* ascending sender order: at most one message per (directed) edge
       per round, so this reproduces the full run's delivery order even
       when injected cross messages interleave with internal ones *)
    let inbox =
      match t.sp_inboxes.(v) with
      | ([] | [ _ ]) as inbox -> inbox
      | inbox -> List.sort by_sender inbox
    in
    t.sp_inboxes.(v) <- [];
    let st = t.sp_states.(i) in
    let st', outbox = t.sp_algo.round t.sp_ctxs.(i) ~round st inbox in
    if st' != st then t.sp_states.(i) <- st';
    check_outbox t v ~stamp:((round * n) + v) outbox;
    t.sp_outboxes.(i) <- outbox
  done;
  let internal, outbound = dispatch t 0 [] [] in
  t.sp_round <- round + 1;
  Obs.bump c_rounds;
  Obs.incr c_messages (t.sp_messages - messages0);
  Obs.incr c_bits (t.sp_total_bits - bits0);
  Obs.observe h_round_messages (t.sp_messages - messages0);
  Obs.observe h_round_bits (t.sp_total_bits - bits0);
  {
    log_round = round;
    internal = List.rev internal;
    outbound = List.rev outbound;
    sent = t.sp_messages > messages0;
  }

let default_max_rounds g = (20 * Graph.n g) + (10 * Graph.m g) + 100

(* ---- whole-network runs, rebuilt on the stepper ---------------------- *)

let run_internal ?max_rounds ~on_message t =
  let algo = t.sp_algo in
  let max_rounds =
    match max_rounds with Some r -> r | None -> default_max_rounds t.sp_g
  in
  let quiescent = ref false in
  while (not !quiescent) || not (stepper_all_output t) do
    if t.sp_round > max_rounds then
      failwith
        (Printf.sprintf "Network.run: algorithm %S did not terminate in %d rounds"
           algo.name max_rounds);
    let log = step t in
    List.iter
      (fun tr -> on_message ~sender:tr.t_sender ~target:tr.t_target ~bits:tr.t_bits)
      log.internal;
    quiescent := not log.sent
  done;
  (Array.init (Graph.n t.sp_g) (owned_state t), stepper_stats t)

let run ?seed ?bandwidth_factor ?max_rounds g algo =
  run_internal ?max_rounds
    ~on_message:(fun ~sender:_ ~target:_ ~bits:_ -> ())
    (stepper ?seed ?bandwidth_factor g algo)

let run_directed ?seed ?bandwidth_factor ?max_rounds dg algo =
  run_internal ?max_rounds
    ~on_message:(fun ~sender:_ ~target:_ ~bits:_ -> ())
    (stepper_directed ?seed ?bandwidth_factor dg algo)

(* ---- partitioned runs: one partial stepper per part ------------------ *)

let partition_of_side side = Array.map (fun s -> if s then 0 else 1) side

let partition_parts partition =
  if Array.length partition = 0 then
    invalid_arg "Network.partition: empty vertex set";
  let t = Array.fold_left (fun acc p -> max acc (p + 1)) 0 partition in
  Array.iter
    (fun p -> if p < 0 then invalid_arg "Network.partition: negative part id")
    partition;
  let sizes = Array.make t 0 in
  Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) partition;
  Array.iteri
    (fun p c ->
      if c = 0 then
        invalid_arg (Printf.sprintf "Network.partition: part %d is empty" p))
    sizes;
  t

type part_stats = {
  p_parts : int;
  p_stats : stats;
  p_cross_bits : int;
  p_cross_messages : int;
  p_pair_bits : int array array;
  p_pair_messages : int array array;
}

(* The generic engine: [steppers.(p)] simulates part [p]; cross-part
   transfers are re-injected into the target part at the next step, so
   the t half-runs reproduce the full run's delivery schedule exactly
   (inboxes are sorted by sender, so injection order is immaterial). *)
let run_partitioned_steppers ?max_rounds ~partition steppers =
  let t = Array.length steppers in
  let g = steppers.(0).sp_g in
  let max_rounds =
    match max_rounds with Some r -> r | None -> default_max_rounds g
  in
  let pair_bits = Array.make_matrix t t 0 in
  let pair_messages = Array.make_matrix t t 0 in
  let cross_bits = ref 0 and cross_messages = ref 0 in
  let inject = Array.make t [] in
  let quiescent = ref false in
  let all_output () = Array.for_all stepper_all_output steppers in
  while (not !quiescent) || not (all_output ()) do
    if steppers.(0).sp_round > max_rounds then
      failwith
        (Printf.sprintf "Network.run: algorithm %S did not terminate in %d rounds"
           steppers.(0).sp_algo.name max_rounds);
    let sent = ref false in
    let logs =
      Array.mapi
        (fun p sp ->
          let log = step ~inject:inject.(p) sp in
          inject.(p) <- [];
          if log.sent then sent := true;
          log)
        steppers
    in
    Array.iteri
      (fun p log ->
        List.iter
          (fun tr ->
            let q = partition.(tr.t_target) in
            pair_bits.(p).(q) <- pair_bits.(p).(q) + tr.t_bits;
            pair_messages.(p).(q) <- pair_messages.(p).(q) + 1;
            cross_bits := !cross_bits + tr.t_bits;
            incr cross_messages;
            inject.(q) <- tr :: inject.(q))
          log.outbound)
      logs;
    quiescent := not !sent
  done;
  let n = Graph.n g in
  let states =
    Array.init n (fun v -> owned_state steppers.(partition.(v)) v)
  in
  let merged =
    Array.fold_left
      (fun acc sp ->
        let s = stepper_stats sp in
        {
          acc with
          messages = acc.messages + s.messages;
          total_bits = acc.total_bits + s.total_bits;
          max_message_bits = max acc.max_message_bits s.max_message_bits;
        })
      {
        rounds = steppers.(0).sp_round;
        messages = 0;
        total_bits = 0;
        max_message_bits = 0;
        bandwidth = steppers.(0).sp_bandwidth;
      }
      steppers
  in
  {
    p_parts = t;
    p_stats = merged;
    p_cross_bits = !cross_bits;
    p_cross_messages = !cross_messages;
    p_pair_bits = pair_bits;
    p_pair_messages = pair_messages;
  }
  |> fun ps -> (states, ps)

let check_partition ~who ~n partition =
  if Array.length partition <> n then
    invalid_arg (Printf.sprintf "Network.%s: partition length" who);
  partition_parts partition

let run_partitioned ?seed ?bandwidth_factor ?max_rounds ~partition g algo =
  let t = check_partition ~who:"run_partitioned" ~n:(Graph.n g) partition in
  let steppers =
    Array.init t (fun p ->
        stepper ?seed ?bandwidth_factor ~owns:(fun v -> partition.(v) = p) g algo)
  in
  run_partitioned_steppers ?max_rounds ~partition steppers

let run_directed_partitioned ?seed ?bandwidth_factor ?max_rounds ~partition dg
    algo =
  let t =
    check_partition ~who:"run_directed_partitioned" ~n:(Digraph.n dg) partition
  in
  let steppers =
    Array.init t (fun p ->
        stepper_directed ?seed ?bandwidth_factor
          ~owns:(fun v -> partition.(v) = p)
          dg algo)
  in
  run_partitioned_steppers ?max_rounds ~partition steppers

type cut_stats = { stats : stats; cut_bits : int; cut_messages : int }

let cut_of_part_stats (states, ps) =
  ( states,
    {
      stats = ps.p_stats;
      cut_bits = ps.p_cross_bits;
      cut_messages = ps.p_cross_messages;
    } )

let run_split ?seed ?bandwidth_factor ?max_rounds ~side g algo =
  if Array.length side <> Graph.n g then invalid_arg "Network.run_split: side length";
  cut_of_part_stats
    (run_partitioned ?seed ?bandwidth_factor ?max_rounds
       ~partition:(partition_of_side side) g algo)

let run_directed_split ?seed ?bandwidth_factor ?max_rounds ~side dg algo =
  if Array.length side <> Digraph.n dg then
    invalid_arg "Network.run_directed_split: side length";
  cut_of_part_stats
    (run_directed_partitioned ?seed ?bandwidth_factor ?max_rounds
       ~partition:(partition_of_side side) dg algo)
