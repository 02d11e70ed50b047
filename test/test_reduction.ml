open Ch_graph
open Ch_cc
open Ch_congest
open Ch_lbgraphs
open Ch_solvers
open Ch_reduction
module Jsonx = Ch_json.Jsonx

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- the three Theorem 1.1 target families at k = 2 ------------------ *)

let mds_spec () =
  Simulate.gather_spec ~name:"mds-k2" (Mds_lb.family ~k:2)
    ~solver:Domset.min_size
    ~accept:(fun a -> a <= Mds_lb.target_size ~k:2)

let maxis_spec () =
  Simulate.gather_spec ~name:"maxis-k2" (Maxis_lb.family ~k:2) ~solver:Mis.alpha
    ~accept:(fun a -> a >= Maxis_lb.alpha_target ~k:2)

let maxcut_spec () =
  Simulate.gather_spec ~name:"maxcut-k2" (Maxcut_lb.family ~k:2)
    ~solver:(fun g -> fst (Maxcut.max_cut g))
    ~accept:(fun a -> a >= Maxcut_lb.target_weight ~k:2)

let assert_report name (r : Bound.report) =
  check (name ^ ": transcript = run_split on every pair") true r.Bound.rep_all_match;
  check (name ^ ": decisions match f(x,y)") true r.Bound.rep_all_correct;
  check (name ^ ": cut bits within rounds*|Ecut|*B") true
    r.Bound.rep_all_within_budget

let test_mds_differential () =
  let spec = mds_spec () in
  let fam = spec.Simulate.sfam in
  let pairs, skipped = Bound.connected_pairs fam (Bound.exhaustive_pairs fam) in
  check_int "only the no-edge corner is disconnected" 1 skipped;
  let _, report = Bound.sweep spec pairs in
  check_int "255 pairs" 255 report.Bound.rep_pairs;
  assert_report "mds" report

let test_maxis_differential () =
  let spec = maxis_spec () in
  let fam = spec.Simulate.sfam in
  let pairs, skipped = Bound.connected_pairs fam (Bound.exhaustive_pairs fam) in
  check_int "only the all-ones corner is disconnected" 1 skipped;
  let _, report = Bound.sweep spec pairs in
  check_int "255 pairs" 255 report.Bound.rep_pairs;
  assert_report "maxis" report

let test_maxcut_differential () =
  let spec = maxcut_spec () in
  let fam = spec.Simulate.sfam in
  let pairs, skipped =
    Bound.connected_pairs fam (Bound.sampled_pairs fam ~seed:41 ~samples:4)
  in
  check_int "maxcut instances always connected" 0 skipped;
  let _, report = Bound.sweep spec pairs in
  check_int "corners + 4 samples" 8 report.Bound.rep_pairs;
  assert_report "maxcut" report

(* ---- trace regression: the events replay the charged transcript ------ *)

let test_trace_replays_transcript () =
  let spec = mds_spec () in
  let x = Bits.random ~seed:7 4 and y = Bits.random ~seed:8 4 in
  let sink, events = Trace.collector () in
  let t = spec.Simulate.srun ~trace:sink x y in
  let r = spec.Simulate.sref x y in
  check_int "run_split oracle agrees" r.Simulate.ref_cut_bits
    t.Simulate.cut_bits;
  let events = events () in
  let cut_msg_bits, cut_msgs, round_cut_bits, last_cum =
    List.fold_left
      (fun (mb, mc, rb, _) ev ->
        match ev with
        | Trace.Msg { cut = true; bits; cum_cut_bits; edge; _ } ->
            check "cut message has a cut-edge index" true (edge <> None);
            (mb + bits, mc + 1, rb, cum_cut_bits)
        | Trace.Msg { cut = false; edge; cum_cut_bits; _ } ->
            check "internal message has no cut-edge index" true (edge = None);
            (mb, mc, rb, cum_cut_bits)
        | Trace.Round { cut_bits; cum_cut_bits; _ } ->
            (mb, mc, rb + cut_bits, cum_cut_bits))
      (0, 0, 0, 0) events
  in
  check_int "sum of cut Msg bits = transcript cut_bits" t.Simulate.cut_bits
    cut_msg_bits;
  check_int "sum of Round cut_bits = transcript cut_bits" t.Simulate.cut_bits
    round_cut_bits;
  check_int "cut Msg count = transcript cut_messages" t.Simulate.cut_messages
    cut_msgs;
  check_int "final cumulative = transcript cut_bits" t.Simulate.cut_bits
    last_cum;
  check_int "one Round event per round" t.Simulate.rounds
    (List.length
       (List.filter (function Trace.Round _ -> true | _ -> false) events))

let test_trace_json () =
  let spec = maxis_spec () in
  let sink, events = Trace.collector () in
  let _ = spec.Simulate.srun ~trace:sink (Bits.ones 4) (Bits.zeros 4) in
  List.iter
    (fun ev ->
      let j = Trace.to_json ev in
      let line = Jsonx.to_string j in
      check "one line" false (String.contains line '\n');
      check "line parses back" true (Jsonx.parse line = Ok j);
      check "typed object" true
        (Option.bind (Jsonx.mem "type" j) Jsonx.as_str <> None))
    (events ())

(* ---- transcript pins ------------------------------------------------- *)

(* [srun] and [sref] both run [Network.step], so their differential
   cannot see a change common to both, and the bench gate holds only
   totals.  These pins hold every event: the JSONL trace of three sweeps,
   byte for byte what [hardness reduction ID -k K ... --trace FILE]
   writes, by event count and MD5 — two parties (mds, exhaustive), t = 4
   (bitgadget) and the directed stepper (hampath).  The values were
   recorded before the round loop was made allocation-light. *)
let transcript_pins =
  [
    ("mds", 2, `Exhaustive, 78294, "d53532283d623dbb2c15095c036ec91a");
    ("bitgadget", 4, `Sampled (7, 4), 1717, "322479b6c37ecaf31c55fd982a554e79");
    ("hampath", 2, `Sampled (5, 8), 12532, "1a74d95a6bda7926d3d51b6d29475cb9");
  ]

let test_transcript_pins () =
  let reg = Families.catalog () in
  List.iter
    (fun (id, k, mode, events_n, md5) ->
      let exhaustive, seed, samples =
        match mode with
        | `Exhaustive -> (true, None, None)
        | `Sampled (seed, samples) -> (false, Some seed, Some samples)
      in
      let sink, events = Trace.collector () in
      match
        Bound.sweep_registry ~trace:sink ?seed ~exhaustive ?samples
          (Ch_core.Registry.find_exn reg id) ~k
      with
      | None -> Alcotest.fail (id ^ " carries a reduction")
      | Some _ ->
          let events = events () in
          let buf = Buffer.create (1 lsl 20) in
          List.iter
            (fun e ->
              Buffer.add_string buf (Jsonx.to_string (Trace.to_json e));
              Buffer.add_char buf '\n')
            events;
          let tag what = Printf.sprintf "%s-k%d %s" id k what in
          check_int (tag "events") events_n (List.length events);
          Alcotest.(check string)
            (tag "trace MD5") md5
            (Digest.to_hex (Digest.string (Buffer.contents buf))))
    transcript_pins

(* ---- bandwidth accounting: msg_bits is honest for every algorithm ---- *)

(* run [algo] on [g] through a full-graph stepper and hand every message
   sent to [f] *)
let iter_messages (algo : ('s, 'm) Network.algo) g f =
  let t = Network.stepper g algo in
  let quiescent = ref false in
  let guard = Network.default_max_rounds g in
  while (not !quiescent) || not (Network.stepper_all_output t) do
    if Network.stepper_round t > guard then
      failwith ("iter_messages: " ^ algo.Network.name ^ " did not terminate");
    let log = Network.step t in
    List.iter (fun tr -> f tr.Network.t_bits tr.Network.t_msg) log.Network.internal;
    quiescent := not log.Network.sent
  done

let check_codec_on name algo codec g =
  let bw = Network.bandwidth_for (Graph.n g) in
  let seen = ref 0 in
  iter_messages algo g (fun bits msg ->
      incr seen;
      check_int
        (Printf.sprintf "%s: |enc m| = msg_bits m" name)
        bits
        (List.length (codec.Codec.enc msg));
      check (Printf.sprintf "%s: msg_bits <= bandwidth_for n" name) true
        (bits <= bw));
  check (name ^ ": exercised some messages") true (!seen > 0)

let test_codec_bfs () =
  List.iter
    (fun seed ->
      let g = Gen.random_connected ~seed 17 0.2 in
      let n = Graph.n g in
      check_codec_on "bfs" (Bfs.algo ~root:0 ~n) (Codec.bfs ~n) g)
    [ 1; 2; 3 ]

let test_codec_leader () =
  List.iter
    (fun seed ->
      let g = Gen.random_connected ~seed 15 0.2 in
      let n = Graph.n g in
      check_codec_on "leader" (Leader.algo ~n) (Codec.leader ~n) g)
    [ 4; 5; 6 ]

let test_codec_mis_greedy () =
  List.iter
    (fun seed ->
      let g = Gen.random_connected ~seed 16 0.25 in
      check_codec_on "mis-greedy" Mis_greedy.algo Codec.mis_greedy g)
    [ 7; 8; 9 ]

let test_codec_mds_greedy () =
  List.iter
    (fun seed ->
      let g = Gen.random_connected ~seed 12 0.3 in
      let n = Graph.n g in
      check_codec_on "mds-greedy" (Mds_greedy.algo ~n) Codec.mds_greedy g)
    [ 10; 11; 12 ]

let test_codec_gather () =
  List.iter
    (fun seed ->
      let g = Gen.random_weights ~seed (Gen.random_connected ~seed 13 0.25) in
      check_codec_on "gather"
        (Gather.algo ~root:0 ~f:Graph.m ())
        Codec.gather g)
    [ 13; 14; 15 ];
  (* the lower-bound instances themselves, where the codec must also hold *)
  List.iter
    (fun (fam : Ch_core.Framework.t) ->
      match Ch_core.Framework.build fam (Bits.ones 4) (Bits.random ~seed:21 4) with
      | Ch_core.Framework.Undirected g ->
          check_codec_on "gather-lb"
            (Gather.algo ~root:0 ~f:Graph.m ())
            Codec.gather g
      | _ -> Alcotest.fail "undirected family expected")
    [ Mds_lb.family ~k:2; Maxis_lb.family ~k:2; Maxcut_lb.family ~k:2 ]

(* ---- run_split cut accounting vs the stepper-derived trace ----------- *)

let test_run_split_matches_trace () =
  let fam = Maxis_lb.family ~k:2 in
  List.iter
    (fun seed ->
      let x = Bits.random ~seed 4 and y = Bits.random ~seed:(seed + 100) 4 in
      let spec = maxis_spec () in
      let sink, events = Trace.collector () in
      let t = spec.Simulate.srun ~trace:sink x y in
      let g =
        match Ch_core.Framework.build fam x y with
        | Ch_core.Framework.Undirected g -> g
        | _ -> Alcotest.fail "undirected"
      in
      let _, cs =
        Gather.solve_split ~side:fam.Ch_core.Framework.side g ~f:Mis.alpha
      in
      let per_round =
        List.filter_map
          (function Trace.Round { cut_bits; _ } -> Some cut_bits | _ -> None)
          (events ())
      in
      check_int "run_split cut_bits = sum of per-round trace cut bits"
        cs.Network.cut_bits
        (List.fold_left ( + ) 0 per_round);
      check_int "and equals the charged transcript" cs.Network.cut_bits
        t.Simulate.cut_bits)
    [ 31; 32; 33 ]

(* ---- bound report arithmetic ----------------------------------------- *)

let test_report_figures () =
  let spec = mds_spec () in
  let fam = spec.Simulate.sfam in
  let pairs, _ =
    Bound.connected_pairs fam (Bound.sampled_pairs fam ~seed:3 ~samples:2)
  in
  let rows, report = Bound.sweep spec pairs in
  check_int "rows = pairs" (List.length pairs) (List.length rows);
  check_int "cc bits for DISJ_K is K" fam.Ch_core.Framework.input_bits
    report.Bound.rep_cc_bits;
  check "lb rounds positive" true (report.Bound.rep_lb_rounds > 0.0);
  check "bits per round positive" true (report.Bound.rep_bits_per_round > 0.0);
  check "cut matches the framework descriptor" true
    (report.Bound.rep_cut = Ch_core.Framework.cut_size fam)

let test_exhaustive_guard () =
  Alcotest.check_raises "K > 5 rejected"
    (Invalid_argument "Bound.exhaustive_pairs: K > 5") (fun () ->
      ignore (Bound.exhaustive_pairs (Mds_lb.family ~k:8)))

(* ---- multiparty conservation laws (qcheck) --------------------------- *)

let qt = QCheck_alcotest.to_alcotest
let bits_of_int w v = Bits.of_fun w (fun b -> v land (1 lsl b) <> 0)

(* a t-part partition a family admits: every input edge inside one part
   (the vertices its elements join share the part of their class's
   representative), parts 0..t-1 all inhabited (the p-th vertex no
   element touches pinned to part p), the rest uniform *)
let gen_partition fam =
  let n = fam.Ch_core.Framework.nvertices in
  let classes = Union_find.create n in
  List.iter
    (fun (u, v) -> ignore (Union_find.union classes u v))
    (Ch_core.Framework.candidates fam);
  let volatile = Ch_core.Framework.volatile fam in
  let free =
    Array.of_list (List.filter (fun v -> not (List.mem v volatile)) (List.init n Fun.id))
  in
  QCheck.Gen.(
    int_range 2 4 >>= fun t ->
    array_size (return n) (int_bound (t - 1)) >>= fun a ->
    for v = 0 to n - 1 do
      a.(v) <- a.(Union_find.find classes v)
    done;
    for p = 0 to t - 1 do
      a.(free.(p)) <- p
    done;
    return a)

let print_case (partition, xi, yi) =
  Printf.sprintf "partition=[|%s|] x=%d y=%d"
    (String.concat ";" (Array.to_list (Array.map string_of_int partition)))
    xi yi

(* property (i): whatever partition the family admits, the bits the
   simulation charges through the part-pair channels are exactly the
   engine's cross-part accounting — nothing leaks, nothing is
   double-charged *)
let prop_partition_conservation =
  let fam = Mds_lb.family ~k:2 in
  let target = Mds_lb.target_size ~k:2 in
  let algo () = Gather.algo ~root:0 ~f:Domset.min_size () in
  QCheck.Test.make ~count:60
    ~name:"any t-partition: charged cut bits = run_partitioned cross bits"
    (QCheck.make ~print:print_case
       QCheck.Gen.(
         triple
           (gen_partition fam)
           (int_bound 15) (int_bound 15)))
    (fun (partition, xi, yi) ->
      let x = bits_of_int 4 xi and y = bits_of_int 4 yi in
      match Ch_core.Framework.build fam x y with
      | Ch_core.Framework.Undirected g ->
          if not (Props.connected g) then true
          else
            let t =
              Simulate.lockstep_partitioned fam ~partition ~algo:(algo ())
                ~codecs:(Codec.uniform Codec.gather)
                ~accept:(fun a -> a <= target)
                x y
            in
            let _, ps = Network.run_partitioned ~partition g (algo ()) in
            t.Simulate.parties = ps.Network.p_parts
            && t.Simulate.cut_bits = ps.Network.p_cross_bits
            && t.Simulate.cut_messages = ps.Network.p_cross_messages
            && t.Simulate.rounds = ps.Network.p_stats.Network.rounds
      | _ -> false)

(* property (ii): at t=2 the generalized engine is bit-identical to the
   historical Alice/Bob path — exhaustively, over every connected k=2
   MDS and MaxIS instance *)
let test_t2_bit_identity () =
  List.iter
    (fun (name, spec) ->
      let fam = spec.Simulate.sfam in
      let kbits = fam.Ch_core.Framework.input_bits in
      for xi = 0 to (1 lsl kbits) - 1 do
        for yi = 0 to (1 lsl kbits) - 1 do
          let x = bits_of_int kbits xi and y = bits_of_int kbits yi in
          match Ch_core.Framework.build fam x y with
          | Ch_core.Framework.Undirected g when Props.connected g ->
              let t = spec.Simulate.srun x y in
              let r = spec.Simulate.sref x y in
              let tag what = Printf.sprintf "%s %d/%d %s" name xi yi what in
              check_int (tag "answer") r.Simulate.ref_answer t.Simulate.answer;
              check_int (tag "cut bits") r.Simulate.ref_cut_bits
                t.Simulate.cut_bits;
              check_int (tag "cut messages") r.Simulate.ref_cut_messages
                t.Simulate.cut_messages;
              check_int (tag "rounds") r.Simulate.ref_rounds t.Simulate.rounds;
              check_int (tag "parties") 2 t.Simulate.parties
          | _ -> ()
        done
      done)
    [ ("mds", mds_spec ()); ("maxis", maxis_spec ()) ]

(* the t=2 wrapper and an explicit side-derived 2-partition emit the very
   same trace, event for event *)
let test_t2_wrapper_trace_identity () =
  let fam = Mds_lb.family ~k:2 in
  let target = Mds_lb.target_size ~k:2 in
  let accept a = a <= target in
  List.iter
    (fun seed ->
      let x = Bits.random ~seed 4 and y = Bits.random ~seed:(seed + 60) 4 in
      let sink2, events2 = Trace.collector () in
      let t2 =
        Simulate.lockstep ~trace:sink2 fam
          ~algo:(Gather.algo ~root:0 ~f:Domset.min_size ())
          ~codec:Codec.gather ~accept x y
      in
      let sinkp, eventsp = Trace.collector () in
      let tp =
        Simulate.lockstep_partitioned ~trace:sinkp fam
          ~partition:(Network.partition_of_side fam.Ch_core.Framework.side)
          ~algo:(Gather.algo ~root:0 ~f:Domset.min_size ())
          ~codecs:(Codec.uniform Codec.gather)
          ~accept x y
      in
      check_int "same cut bits" t2.Simulate.cut_bits tp.Simulate.cut_bits;
      Alcotest.(check (list string))
        "identical event streams"
        (List.map (fun e -> Jsonx.to_string (Trace.to_json e)) (events2 ()))
        (List.map (fun e -> Jsonx.to_string (Trace.to_json e)) (eventsp ())))
    [ 71; 72; 73 ]

(* ---- the first genuinely multiparty workload ------------------------- *)

let test_bitgadget_t4_differential () =
  match
    Simulate.registry_spec
      (Ch_core.Registry.find_exn (Families.catalog ()) "bitgadget")
      ~k:2
  with
  | None -> Alcotest.fail "bitgadget spec carries a reduction"
  | Some spec ->
      check_int "t=4" 4 spec.Simulate.sparties;
      let fam = spec.Simulate.sfam in
      let pairs, skipped =
        Bound.connected_pairs fam (Bound.exhaustive_pairs fam)
      in
      check "some pool-empty corners are disconnected" true (skipped > 0);
      let _, report = Bound.sweep spec pairs in
      assert_report "bitgadget" report;
      check_int "report says t=4" 4 report.Bound.rep_parties

let () =
  Alcotest.run "reduction"
    [
      ( "differential",
        [
          Alcotest.test_case "mds k=2 exhaustive" `Slow test_mds_differential;
          Alcotest.test_case "maxis k=2 exhaustive" `Slow test_maxis_differential;
          Alcotest.test_case "maxcut k=2 sampled" `Slow test_maxcut_differential;
        ] );
      ( "trace",
        [
          Alcotest.test_case "events replay transcript" `Quick
            test_trace_replays_transcript;
          Alcotest.test_case "json events" `Quick test_trace_json;
          Alcotest.test_case "run_split vs trace" `Quick
            test_run_split_matches_trace;
          Alcotest.test_case "transcript pins" `Quick test_transcript_pins;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "bfs" `Quick test_codec_bfs;
          Alcotest.test_case "leader" `Quick test_codec_leader;
          Alcotest.test_case "mis-greedy" `Quick test_codec_mis_greedy;
          Alcotest.test_case "mds-greedy" `Quick test_codec_mds_greedy;
          Alcotest.test_case "gather" `Quick test_codec_gather;
        ] );
      ( "bound",
        [
          Alcotest.test_case "report figures" `Quick test_report_figures;
          Alcotest.test_case "exhaustive guard" `Quick test_exhaustive_guard;
        ] );
      ( "multiparty",
        [
          qt prop_partition_conservation;
          Alcotest.test_case "t=2 bit-identity (exhaustive)" `Slow
            test_t2_bit_identity;
          Alcotest.test_case "t=2 wrapper trace identity" `Quick
            test_t2_wrapper_trace_identity;
          Alcotest.test_case "bitgadget t=4 exhaustive differential" `Slow
            test_bitgadget_t4_differential;
        ] );
    ]
