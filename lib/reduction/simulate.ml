open Ch_graph
open Ch_cc
open Ch_core
open Ch_congest

type transcript = {
  parties : int;
  rounds : int;
  cut_bits : int;
  cut_messages : int;
  internal_bits : int;
  cut_size : int;
  bandwidth : int;
  budget : int;
  answer : int;
  output : bool;
  expected : bool;
  correct : bool;
  within_budget : bool;
}

exception
  Codec_mismatch of { algo : string; declared : int; encoded : int }

let undirected_of name fam x y =
  match Framework.build fam x y with
  | Framework.Undirected g -> g
  | Framework.Directed _ | Framework.With_terminals _
  | Framework.Rooted_digraph _ ->
      invalid_arg (name ^ ": undirected instances only")

let directed_of name fam x y =
  match Framework.build fam x y with
  | Framework.Directed dg -> dg
  | Framework.Undirected _ | Framework.With_terminals _
  | Framework.Rooted_digraph _ ->
      invalid_arg (name ^ ": directed instances only")

(* The multicut descriptor depends on the family and the partition
   alone, and building it checks the partition: its length, no empty
   part or negative id (a party with no vertices cannot take part in the
   simulation), no input element across parts.  A spec builds it once
   ([Pool.once]); a direct lockstep call once per run. *)
let multicut fam ~partition () = Framework.multicut_info fam ~partition

(* The generic t-party engine.  [mk_stepper owns] builds the partial
   stepper a party runs (undirected or directed network); [g] is the
   communication graph, used for connectivity and the divergence guard.
   Parts are stepped in index order every round — at t=2 with
   [partition_of_side] this is exactly the historical Alice-then-Bob
   schedule, so the old two-party transcripts replay bit-identically. *)
let lockstep_core ?max_rounds ?(trace = Trace.null) ~name fam ~partition ~mc
    ~(algo : ('state, 'msg) Network.algo) ~(codecs : 'msg Codec.family)
    ~accept ~g ~mk_stepper x y =
  (* the CONGEST model assumes a connected network; degenerate input pairs
     that disconnect G_{x,y} (e.g. the no-input-edge corner of the MDS
     family) are outside it — Bound.connected_pairs filters them *)
  if not (Props.connected g) then
    invalid_arg (name ^ ": G_{x,y} is disconnected");
  let mc : Framework.multicut_info = mc () in
  let t = mc.Framework.mc_parts in
  let cut_size = Array.length mc.Framework.mc_edges in
  (* Party p owns partition⁻¹(p).  By Definition 1.1 (and its multiparty
     analogue) a party's induced subgraph depends only on its own share
     of the input, so each party really can run its stepper locally. *)
  let steppers =
    Array.init t (fun p -> mk_stepper (fun v -> partition.(v) = p))
  in
  let bandwidth = Network.stepper_bandwidth steppers.(0) in
  let max_rounds =
    match max_rounds with Some r -> r | None -> Network.default_max_rounds g
  in
  (* one two-party channel per unordered part pair {p, q}: the multicut
     edge classes of the Theorem 1.1 charging argument *)
  let chans = Array.init t (fun _ -> Array.init t (fun _ -> Protocol.create ())) in
  let chan p q = if p < q then chans.(p).(q) else chans.(q).(p) in
  let charged = ref 0 and cut_messages = ref 0 and internal_bits = ref 0 in
  let pair_round = Array.make_matrix t t 0 in
  let note_internal round (tr : 'msg Network.transfer) =
    internal_bits := !internal_bits + tr.Network.t_bits;
    let p = partition.(tr.Network.t_sender) in
    trace
      (Trace.Msg
         {
           round;
           sender = tr.Network.t_sender;
           target = tr.Network.t_target;
           sender_part = p;
           target_part = partition.(tr.Network.t_target);
           bits = tr.Network.t_bits;
           cut = false;
           edge = None;
           cum_cut_bits = !charged;
         })
  in
  (* A multicut crossing: the sender's party encodes the message and the
     payload goes through its part pair's channel, which charges exactly
     its length = msg_bits — so the transcript total is bit-for-bit the
     run_partitioned cross accounting.  The frame around the payload
     (which cut edge, the value-dependent field widths) is the round
     schedule all parties share; Theorem 1.1 budgets a B-bit slot per cut
     edge per round as common knowledge and charges only the payload. *)
  let cross round (tr : 'msg Network.transfer) =
    let sp = partition.(tr.Network.t_sender)
    and tp = partition.(tr.Network.t_target) in
    let payload = (codecs.Codec.for_party sp).Codec.enc tr.Network.t_msg in
    if List.length payload <> tr.Network.t_bits then
      raise
        (Codec_mismatch
           {
             algo = algo.Network.name;
             declared = tr.Network.t_bits;
             encoded = List.length payload;
           });
    ignore (Protocol.send_bits (chan sp tp) (Bits.of_list payload));
    charged := !charged + tr.Network.t_bits;
    incr cut_messages;
    pair_round.(sp).(tp) <- pair_round.(sp).(tp) + tr.Network.t_bits;
    trace
      (Trace.Msg
         {
           round;
           sender = tr.Network.t_sender;
           target = tr.Network.t_target;
           sender_part = sp;
           target_part = tp;
           bits = tr.Network.t_bits;
           cut = true;
           edge =
             Framework.multicut_index mc tr.Network.t_sender
               tr.Network.t_target;
           cum_cut_bits = !charged;
         });
    tr
  in
  let inject = Array.make t [] in
  let quiescent = ref false in
  (* the loop mirrors Network.run_internal exactly: same termination
     condition over the union of the parts, same divergence guard *)
  while
    (not !quiescent)
    || not (Array.for_all Network.stepper_all_output steppers)
  do
    if Network.stepper_round steppers.(0) > max_rounds then
      failwith
        (Printf.sprintf "%s: %S did not terminate in %d rounds" name
           algo.Network.name max_rounds);
    let before = !charged and before_msgs = !cut_messages in
    let internal_before = !internal_bits in
    let logs =
      Array.mapi
        (fun p st ->
          let l = Network.step ~inject:inject.(p) st in
          inject.(p) <- [];
          l)
        steppers
    in
    let round = logs.(0).Network.log_round in
    Array.iter
      (fun l -> List.iter (note_internal round) l.Network.internal)
      logs;
    (* cross traffic in part order (sender part 0 first), re-injected into
       the target part's next step — in-flight exactly like the inboxes
       of the unsplit run, which deliver in ascending sender order *)
    let next = Array.make t [] in
    Array.iter
      (fun l ->
        List.iter
          (fun tr ->
            let tr = cross round tr in
            let q = partition.(tr.Network.t_target) in
            next.(q) <- tr :: next.(q))
          l.Network.outbound)
      logs;
    Array.iteri (fun q acc -> inject.(q) <- List.rev acc) next;
    let pair_bits = ref [] in
    for p = t - 1 downto 0 do
      for q = t - 1 downto 0 do
        if pair_round.(p).(q) > 0 then
          pair_bits := ((p, q), pair_round.(p).(q)) :: !pair_bits;
        pair_round.(p).(q) <- 0
      done
    done;
    trace
      (Trace.Round
         {
           round;
           cut_bits = !charged - before;
           cut_messages = !cut_messages - before_msgs;
           internal_bits = !internal_bits - internal_before;
           cum_cut_bits = !charged;
           budget = (round + 1) * cut_size * bandwidth;
           pair_bits = !pair_bits;
         });
    quiescent := not (Array.exists (fun l -> l.Network.sent) logs)
  done;
  let rounds = Network.stepper_round steppers.(0) in
  let answer =
    match Network.stepper_output steppers.(partition.(0)) 0 with
    | Some a -> a
    | None -> assert false
  in
  let cut_bits = !charged in
  let budget = rounds * cut_size * bandwidth in
  let expected = fam.Framework.f x y in
  let output = accept answer in
  {
    parties = t;
    rounds;
    cut_bits;
    cut_messages = !cut_messages;
    internal_bits = !internal_bits;
    cut_size;
    bandwidth;
    budget;
    answer;
    output;
    expected;
    correct = output = expected;
    within_budget = cut_bits <= budget;
  }

let run_undirected ?seed ?bandwidth_factor ?max_rounds ?trace fam ~partition ~mc
    ~(algo : ('state, 'msg) Network.algo) ~(codecs : 'msg Codec.family) ~accept x y =
  let name = "Simulate.lockstep_partitioned" in
  let g = undirected_of name fam x y in
  lockstep_core ?max_rounds ?trace ~name fam ~partition ~mc ~algo ~codecs ~accept
    ~g
    ~mk_stepper:(fun owns -> Network.stepper ?seed ?bandwidth_factor ~owns g algo)
    x y

(* the directed run: steppers on the communication graph, with the
   orientation as local data *)
let run_directed ?seed ?bandwidth_factor ?max_rounds ?trace fam ~partition ~mc
    ~(algo : ('state, 'msg) Network.algo) ~(codec : 'msg Codec.t) ~accept x y =
  let name = "Simulate.lockstep_directed" in
  let dg = directed_of name fam x y in
  let g = Network.comm_graph dg in
  lockstep_core ?max_rounds ?trace ~name fam ~partition ~mc
    ~algo ~codecs:(Codec.uniform codec) ~accept ~g
    ~mk_stepper:(fun owns ->
      Network.stepper_directed ?seed ?bandwidth_factor ~owns dg algo)
    x y

let lockstep_partitioned ?seed ?bandwidth_factor ?max_rounds ?trace fam
    ~partition ~algo ~codecs ~accept x y =
  run_undirected ?seed ?bandwidth_factor ?max_rounds ?trace fam ~partition
    ~mc:(multicut fam ~partition) ~algo ~codecs ~accept x y

let lockstep ?seed ?bandwidth_factor ?max_rounds ?trace fam ~algo
    ~(codec : 'msg Codec.t) ~accept x y =
  lockstep_partitioned ?seed ?bandwidth_factor ?max_rounds ?trace fam
    ~partition:(Network.partition_of_side fam.Framework.side)
    ~algo ~codecs:(Codec.uniform codec) ~accept x y

let lockstep_directed ?seed ?bandwidth_factor ?max_rounds ?trace fam ~algo
    ~codec ~accept x y =
  let partition = Network.partition_of_side fam.Framework.side in
  run_directed ?seed ?bandwidth_factor ?max_rounds ?trace fam ~partition
    ~mc:(multicut fam ~partition) ~algo ~codec ~accept x y

(* ---- monomorphic packaging ------------------------------------------ *)

type reference = {
  ref_answer : int;
  ref_cut_bits : int;
  ref_cut_messages : int;
  ref_rounds : int;
}

type spec = {
  sname : string;
  sfam : Framework.t;
  scc : [ `Disj | `Eq ];
  sparties : int;
  srun : ?trace:Trace.sink -> Bits.t -> Bits.t -> transcript;
  sref : Bits.t -> Bits.t -> reference;
}

let make_spec ~name ?(cc = `Disj) ?(parties = 2) fam ~run ~reference =
  {
    sname = name;
    sfam = fam;
    scc = cc;
    sparties = parties;
    srun = run;
    sref = reference;
  }

let gather_spec ?seed ?bandwidth_factor ~name fam ~solver ~accept =
  let algo = Gather.algo ~root:0 ~f:solver () in
  let partition = Network.partition_of_side fam.Framework.side in
  let mc = Pool.once (multicut fam ~partition) in
  {
    sname = name;
    sfam = fam;
    scc = `Disj;
    sparties = 2;
    srun =
      (fun ?trace x y ->
        run_undirected ?seed ?bandwidth_factor ?trace fam ~partition ~mc ~algo
          ~codecs:(Codec.uniform Codec.gather) ~accept x y);
    sref =
      (fun x y ->
        let g = undirected_of "Simulate.gather_spec" fam x y in
        let answer, cs =
          Gather.solve_split ?seed ?bandwidth_factor ~side:fam.Framework.side g
            ~f:solver
        in
        {
          ref_answer = answer;
          ref_cut_bits = cs.Network.cut_bits;
          ref_cut_messages = cs.Network.cut_messages;
          ref_rounds = cs.Network.stats.Network.rounds;
        });
  }

let gather_spec_directed ?seed ?bandwidth_factor ~name fam ~solver ~accept =
  let algo = Gather.directed_algo ~root:0 ~f:solver () in
  let partition = Network.partition_of_side fam.Framework.side in
  let mc = Pool.once (multicut fam ~partition) in
  {
    sname = name;
    sfam = fam;
    scc = `Disj;
    sparties = 2;
    srun =
      (fun ?trace x y ->
        run_directed ?seed ?bandwidth_factor ?trace fam ~partition ~mc ~algo
          ~codec:Codec.gather ~accept x y);
    sref =
      (fun x y ->
        let dg = directed_of "Simulate.gather_spec_directed" fam x y in
        let answer, cs =
          Gather.solve_directed_split ?seed ?bandwidth_factor
            ~side:fam.Framework.side dg ~f:solver
        in
        {
          ref_answer = answer;
          ref_cut_bits = cs.Network.cut_bits;
          ref_cut_messages = cs.Network.cut_messages;
          ref_rounds = cs.Network.stats.Network.rounds;
        });
  }

let gather_spec_partitioned ?seed ?bandwidth_factor ~name fam ~partition
    ~solver ~accept =
  let algo = Gather.algo ~root:0 ~f:solver () in
  let mc = Pool.once (multicut fam ~partition) in
  {
    sname = name;
    sfam = fam;
    scc = `Disj;
    sparties = Network.partition_parts partition;
    srun =
      (fun ?trace x y ->
        run_undirected ?seed ?bandwidth_factor ?trace fam ~partition ~mc ~algo
          ~codecs:(Codec.uniform Codec.gather) ~accept x y);
    sref =
      (fun x y ->
        let g = undirected_of "Simulate.gather_spec_partitioned" fam x y in
        let answer, ps =
          Gather.solve_partitioned ?seed ?bandwidth_factor ~partition g
            ~f:solver
        in
        {
          ref_answer = answer;
          ref_cut_bits = ps.Network.p_cross_bits;
          ref_cut_messages = ps.Network.p_cross_messages;
          ref_rounds = ps.Network.p_stats.Network.rounds;
        });
  }

(* The registry adapter: any catalog spec carrying a reduction record
   compiles to a gather spec at scale k — two-party, t-party or directed
   two-party depending on what the record registered. *)
let registry_spec ?seed ?bandwidth_factor (s : Registry.spec) ~k =
  match s.Registry.reduction with
  | None -> None
  | Some rd ->
      let rd = rd k in
      let name = Printf.sprintf "%s-k%d" s.Registry.id k in
      let fam = s.Registry.scratch k in
      let accept = rd.Registry.rd_accept in
      Some
        (match (rd.Registry.rd_solver, rd.Registry.rd_partition) with
        | Framework.Graph_solver solver, None ->
            gather_spec ?seed ?bandwidth_factor ~name fam ~solver ~accept
        | Framework.Graph_solver solver, Some partition ->
            gather_spec_partitioned ?seed ?bandwidth_factor ~name fam
              ~partition ~solver ~accept
        | Framework.Digraph_solver solver, None ->
            gather_spec_directed ?seed ?bandwidth_factor ~name fam ~solver
              ~accept
        | Framework.Digraph_solver _, Some _ ->
            invalid_arg
              "Simulate.registry_spec: partitioned directed reductions are \
               not supported")
