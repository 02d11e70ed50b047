open Ch_cc
open Ch_core
open Ch_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Bits / Commfn                                                       *)
(* ------------------------------------------------------------------ *)

let test_bits_basics () =
  let b = Bits.of_list [ true; false; true ] in
  check_int "length" 3 (Bits.length b);
  check "get" true (Bits.get b 0);
  check "set is functional" false (Bits.get (Bits.set b 0 false) 0 || not (Bits.get b 0));
  check_int "popcount" 2 (Bits.popcount b);
  Alcotest.(check string) "to_string" "101" (Bits.to_string b);
  check_int "all 3" 8 (List.length (Bits.all 3));
  let p = Bits.set_pair ~k:2 (Bits.zeros 4) 1 0 true in
  check "pair indexing row-major" true (Bits.get p 2);
  check "get_pair" true (Bits.get_pair ~k:2 p 1 0)

let prop_disj_symmetric =
  QCheck.Test.make ~name:"disjointness is symmetric" ~count:200
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (s1, s2) ->
      let x = Bits.random ~seed:s1 12 and y = Bits.random ~seed:s2 12 in
      Commfn.disj x y = Commfn.disj y x)

let prop_witness_sound =
  QCheck.Test.make ~name:"disjointness witness is sound" ~count:200
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (s1, s2) ->
      let x = Bits.random ~seed:s1 12 and y = Bits.random ~seed:s2 12 in
      match Commfn.witness x y with
      | Some i -> Bits.get x i && Bits.get y i
      | None -> Commfn.disj x y)

let prop_witness_diff_sound =
  QCheck.Test.make ~name:"difference witness is sound" ~count:200
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (s1, s2) ->
      let x = Bits.random ~seed:s1 12 and y = Bits.random ~seed:s2 12 in
      match Commfn.witness_diff x y with
      | Some i -> Bits.get x i <> Bits.get y i
      | None -> Commfn.eq x y)

let test_protocol_accounting () =
  let ch = Protocol.create () in
  check_int "empty" 0 (Protocol.bits ch);
  ignore (Protocol.send_bool ch true);
  check_int "bool = 1 bit" 1 (Protocol.bits ch);
  ignore (Protocol.send_int ch ~max:255 17);
  check_int "byte-sized int" 9 (Protocol.bits ch);
  check_int "width of 0..1" 1 (Protocol.bits_for_int ~max:1);
  check_int "width of 0..7" 3 (Protocol.bits_for_int ~max:7);
  check_int "width of 0..8" 4 (Protocol.bits_for_int ~max:8);
  Alcotest.check_raises "range checked"
    (Invalid_argument "Protocol.send_int: out of range") (fun () ->
      ignore (Protocol.send_int ch ~max:3 9))


let test_eq_fingerprint () =
  let x = Bits.random ~seed:3 96 in
  List.iter
    (fun seed ->
      let r = Randomized.eq_fingerprint ~seed x x in
      check "equal strings always accepted" true r.Randomized.equal;
      check "O(log K) bits" true (r.Randomized.bits <= 40))
    [ 1; 2; 3 ];
  (* one-sided error: across many unequal pairs and seeds, no collision
     with these fixed seeds *)
  let collisions = ref 0 in
  for i = 0 to 49 do
    let a = Bits.random ~seed:(2 * i) 96 and b = Bits.random ~seed:(2 * i + 1) 96 in
    if not (Commfn.eq a b) then begin
      let r = Randomized.eq_fingerprint ~seed:(100 + i) a b in
      if r.Randomized.equal then incr collisions
    end
  done;
  Alcotest.(check int) "no collisions at these seeds" 0 !collisions

(* ------------------------------------------------------------------ *)
(* Framework plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let no_elements = { Framework.at0 = []; at1 = [] }

(* a family over the toy core {1-2} on four vertices, V_A = {0, 1},
   whose x bit 0 adds [x0] and y bit 0 adds [y0] when set *)
let toy ?(side = [| true; true; false; false |]) ~x0 ~y0 () =
  let bit0 e i = if i = 0 then { Framework.at0 = []; at1 = e } else no_elements in
  let core () =
    let g = Graph.create 4 in
    Graph.add_edge g 1 2;
    Framework.Undirected g
  in
  Framework.family ~name:"toy" ~params:[] ~side ~core
    ~input_bits:2 ~x:(bit0 x0) ~y:(bit0 y0)
    ~objective:(Framework.Of_graph (fun g -> Bool.to_int (Graph.mem_edge g 0 1)))
    ~goal:(Framework.At_least 1) ~f:Commfn.intersecting

(* an intentionally broken family: P = "graph has an edge between 0 and
   1" but f = intersecting on 2-bit inputs, where the edge appears only
   when x₀ = 1 — so verify must catch mismatches *)
let toy_family = toy ~x0:[ Framework.Edge (0, 1, 1) ] ~y0:[] ()

(* [(failures, total)] of the scratch engine over the exhaustive space *)
let exhaustive_counts fam =
  let v, _ = Framework.verdicts (Framework.Scratch fam) Pairs.Exhaustive in
  (Framework.failures fam Pairs.Exhaustive v, Array.length v)

let test_verify_detects_mismatch () =
  let failures, total = exhaustive_counts toy_family in
  check_int "sixteen pairs" 16 total;
  check "mismatches found" true (failures > 0)

(* P is the objective meeting the goal, and an objective reads only the
   instance kind it is declared on *)
let test_objective_goal () =
  check "at most, equal" true (Framework.meets (Framework.At_most 2) 2);
  check "at most, above" false (Framework.meets (Framework.At_most 2) 3);
  check "at least, equal" true (Framework.meets (Framework.At_least 2) 2);
  check "at least, below" false (Framework.meets (Framework.At_least 2) 1);
  let x = Bits.ones 2 and y = Bits.zeros 2 in
  check_int "value: the x edge is there" 1 (Framework.value toy_family x y);
  check "holds on that pair" true (Framework.holds toy_family (Framework.build toy_family x y));
  check "fails without it" false (Framework.verdict toy_family y x);
  let on_digraphs = { toy_family with Framework.objective = Framework.Of_digraph Digraph.n } in
  Alcotest.check_raises "an undirected instance is no digraph"
    (Invalid_argument "Framework.evaluate: the objective reads another instance kind")
    (fun () -> ignore (Framework.value on_digraphs x y))

let test_cut_edges () =
  check "cut is the 1-2 edge" true (Framework.cut_edges toy_family = [ (1, 2) ]);
  check_int "cut size" 1 (Framework.cut_size toy_family)

let test_sidedness_detects_violation () =
  check "the toy is sided" true (Framework.sided toy_family);
  (* y changing Alice's side must be flagged *)
  check "y-bit element inside V_A" false
    (Framework.sided (toy ~x0:[] ~y0:[ Framework.Edge (0, 1, 1) ] ()));
  (* so must x changing the cut *)
  check "x-bit element across the cut" false
    (Framework.sided (toy ~x0:[ Framework.Edge (0, 3, 1) ] ~y0:[] ()));
  check "side of the wrong length" false
    (Framework.sided
       (toy ~side:[| true; true; false |] ~x0:[ Framework.Edge (0, 1, 1) ] ~y0:[] ()))

let test_reduce_composes () =
  let base = Ch_lbgraphs.Mds_lb.family ~k:2 in
  let doubled =
    Framework.reduce ~name:"identity-with-terminals"
      ~transform:(fun inst ->
        match inst with
        | Framework.Undirected g -> Framework.With_terminals (g, [ 0; 1 ])
        | _ -> assert false)
      ~element:(fun e -> [ e ]) ~side:base.Framework.side
      ~objective:(Framework.Of_terminals (fun g _ -> Ch_solvers.Domset.min_size g))
      ~goal:base.Framework.goal base
  in
  let failures, total = exhaustive_counts doubled in
  check_int "reduced family still verifies" 0 failures;
  check_int "all pairs" 256 total

let test_lower_bound_formula () =
  (* K / (cut · log2 n) with n = 1024, cut = 8, K = 2^20 *)
  Alcotest.(check (float 0.001))
    "formula" 13107.2
    (Framework.lower_bound_rounds ~input_bits:(1 lsl 20) ~cut:8 ~n:1024)

(* ------------------------------------------------------------------ *)
(* Network misbehavior handling                                        *)
(* ------------------------------------------------------------------ *)

let silly_algo ~bits ~target : (int, int) Ch_congest.Network.algo =
  {
    name = "silly";
    init = (fun _ -> 0);
    round =
      (fun ctx ~round _ _ ->
        if round = 0 && ctx.Ch_congest.Network.id = 0 then (1, [ (target, 42) ])
        else (1, []));
    msg_bits = (fun _ -> bits);
    output = (fun st -> if st > 0 then Some st else None);
  }

let test_bandwidth_violation () =
  let g = Gen.path 4 in
  match Ch_congest.Network.run g (silly_algo ~bits:10_000 ~target:1) with
  | exception Ch_congest.Network.Bandwidth_exceeded _ -> ()
  | _ -> Alcotest.fail "expected Bandwidth_exceeded"

let test_non_neighbor_send () =
  let g = Gen.path 4 in
  match Ch_congest.Network.run g (silly_algo ~bits:4 ~target:3) with
  | exception Failure msg ->
      check "mentions adjacency" true
        (String.length msg > 0
        && String.length msg >= 10)
  | _ -> Alcotest.fail "expected failure for non-neighbor send"

(* [sends] lists, per (round, sender), the outbox that sender returns *)
let scripted_algo ~sends : (int, int) Ch_congest.Network.algo =
  {
    name = "scripted";
    init = (fun _ -> 0);
    round =
      (fun ctx ~round _ _ ->
        ( 1,
          Option.value ~default:[]
            (List.assoc_opt (round, ctx.Ch_congest.Network.id) sends) ));
    msg_bits = (fun _ -> 4);
    output = (fun st -> if st > 0 then Some st else None);
  }

let test_two_messages_one_edge () =
  let g = Gen.path 4 in
  let expect_duplicate what sends =
    match Ch_congest.Network.run g (scripted_algo ~sends) with
    | exception Failure msg ->
        Alcotest.(check string)
          what "Network.run: \"scripted\" sent two messages on one edge" msg
    | _ -> Alcotest.fail (what ^ ": expected failure for two messages on one edge")
  in
  expect_duplicate "two in a row" [ ((0, 0), [ (1, 7); (1, 8) ]) ];
  expect_duplicate "apart in a longer outbox" [ ((0, 1), [ (0, 7); (2, 8); (0, 9) ]) ];
  (* the adjacency check runs first *)
  (match
     Ch_congest.Network.run g (scripted_algo ~sends:[ ((0, 0), [ (1, 7); (1, 8); (3, 9) ]) ])
   with
  | exception Failure msg ->
      Alcotest.(check string)
        "adjacency reported before the duplicate"
        "Network.run: \"scripted\" sent 0 -> 3 but they are not adjacent" msg
  | _ -> Alcotest.fail "expected failure for non-neighbor send");
  (* one message per edge and direction is allowed every round: the same
     edge on consecutive rounds, both directions of one edge, and two
     senders to one target *)
  let _, stats =
    Ch_congest.Network.run g
      (scripted_algo
         ~sends:
           [
             ((0, 1), [ (0, 7); (2, 8) ]);
             ((1, 1), [ (0, 7); (2, 8) ]);
             ((1, 0), [ (1, 7) ]);
             ((1, 2), [ (1, 8); (3, 9) ]);
           ])
  in
  check_int "every message delivered" 7 stats.Ch_congest.Network.messages

let test_inject_unowned () =
  let g = Gen.path 4 in
  let sp =
    Ch_congest.Network.stepper ~owns:(fun v -> v < 2) g (scripted_algo ~sends:[])
  in
  let inject target =
    [ { Ch_congest.Network.t_sender = 1; t_target = target; t_bits = 4; t_msg = 7 } ]
  in
  List.iter
    (fun target ->
      Alcotest.check_raises
        (Printf.sprintf "target %d" target)
        (Invalid_argument "Network.step: injected message targets an unowned vertex")
        (fun () -> ignore (Ch_congest.Network.step ~inject:(inject target) sp)))
    [ 2; 3; 4; -1 ];
  let log = Ch_congest.Network.step ~inject:(inject 0) sp in
  check_int "an owned target is accepted" 0 log.Ch_congest.Network.log_round

let test_non_terminating_algo () =
  let g = Gen.path 3 in
  let never : (int, int) Ch_congest.Network.algo =
    {
      name = "never";
      init = (fun _ -> 0);
      round = (fun _ ~round:_ st _ -> (st, []));
      msg_bits = (fun _ -> 1);
      output = (fun _ -> None);
    }
  in
  match Ch_congest.Network.run ~max_rounds:50 g never with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected termination failure"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "framework"
    [
      ( "cc",
        [
          Alcotest.test_case "bits" `Quick test_bits_basics;
          Alcotest.test_case "protocol accounting" `Quick test_protocol_accounting;
          qt prop_disj_symmetric;
          qt prop_witness_sound;
          qt prop_witness_diff_sound;
          Alcotest.test_case "randomized EQ fingerprint" `Quick test_eq_fingerprint;
        ] );
      ( "framework",
        [
          Alcotest.test_case "verify catches bad families" `Quick
            test_verify_detects_mismatch;
          Alcotest.test_case "objective and goal" `Quick test_objective_goal;
          Alcotest.test_case "cut edges" `Quick test_cut_edges;
          Alcotest.test_case "sidedness violations" `Quick
            test_sidedness_detects_violation;
          Alcotest.test_case "theorem 2.6 reduce" `Quick test_reduce_composes;
          Alcotest.test_case "lower bound formula" `Quick test_lower_bound_formula;
        ] );
      ( "network guards",
        [
          Alcotest.test_case "bandwidth enforced" `Quick test_bandwidth_violation;
          Alcotest.test_case "adjacency enforced" `Quick test_non_neighbor_send;
          Alcotest.test_case "one message per edge enforced" `Quick
            test_two_messages_one_edge;
          Alcotest.test_case "inject needs an owned target" `Quick
            test_inject_unowned;
          Alcotest.test_case "max rounds enforced" `Quick test_non_terminating_algo;
        ] );
    ]
