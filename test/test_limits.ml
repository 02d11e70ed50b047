open Ch_graph
open Ch_solvers
open Ch_limits

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let split_of ~seed n p =
  let g = Gen.random_connected ~seed n p in
  Split.make g ~side:(Array.init n (fun v -> v < n / 2))

let bounded_degree_split ~seed n =
  (* a connected graph with small max degree: a cycle plus a few chords *)
  let g = Gen.cycle n in
  let rng = Random.State.make [| seed |] in
  for _ = 1 to n / 4 do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v && not (Graph.mem_edge g u v) then Graph.add_edge g u v
  done;
  Split.make g ~side:(Array.init n (fun v -> v < n / 2))

(* ------------------------------------------------------------------ *)
(* Claims 5.1-5.3: bounded degree protocols                            *)
(* ------------------------------------------------------------------ *)

let test_mvc_bounded () =
  List.iter
    (fun seed ->
      let split = bounded_degree_split ~seed 14 in
      let g = split.Split.graph in
      let eps = 0.5 in
      let r = Approx_protocols.mvc_bounded_degree ~eps split in
      let covered (u, v, _) = List.mem u r.Approx_protocols.value || List.mem v r.Approx_protocols.value in
      check "is a vertex cover" true (List.for_all covered (Graph.edges g));
      let opt = Mis.min_vertex_cover_size g in
      check "(1+eps) guarantee" true
        (float_of_int (List.length r.Approx_protocols.value)
        <= ((1.0 +. eps) *. float_of_int opt) +. 0.001);
      check "bits are modest" true (r.Approx_protocols.bits <= 60 * Graph.m g))
    [ 1; 2; 3 ]

let test_mds_bounded () =
  List.iter
    (fun seed ->
      let split = bounded_degree_split ~seed 14 in
      let g = split.Split.graph in
      let eps = 0.9 in
      let r = Approx_protocols.mds_bounded_degree ~eps split in
      check "dominates" true (Domset.is_dominating g r.Approx_protocols.value);
      let opt = Domset.min_size g in
      check "(1+eps) guarantee" true
        (float_of_int (List.length r.Approx_protocols.value)
        <= ((1.0 +. eps) *. float_of_int opt) +. 0.001))
    [ 4; 5; 6 ]

let test_maxis_bounded () =
  List.iter
    (fun seed ->
      let split = bounded_degree_split ~seed 14 in
      let g = split.Split.graph in
      let eps = 0.9 in
      let r = Approx_protocols.maxis_bounded_degree ~eps split in
      check "independent" true (Mis.is_independent g r.Approx_protocols.value);
      let opt = Mis.alpha g in
      check "(1-eps) guarantee" true
        (float_of_int (List.length r.Approx_protocols.value)
        >= ((1.0 -. eps) *. float_of_int opt) -. 0.001))
    [ 7; 8; 9 ]

(* ------------------------------------------------------------------ *)
(* Claims 5.4-5.5: max cut                                             *)
(* ------------------------------------------------------------------ *)

let test_maxcut_unweighted () =
  List.iter
    (fun seed ->
      let split = split_of ~seed 14 0.3 in
      let g = split.Split.graph in
      let eps = 0.8 in
      let r = Approx_protocols.maxcut_unweighted ~eps split in
      let value, side = r.Approx_protocols.value in
      check_int "value consistent" (Maxcut.cut_weight g side) value;
      let opt = fst (Maxcut.max_cut g) in
      check "(1-eps) guarantee" true
        (float_of_int value >= ((1.0 -. eps) *. float_of_int opt) -. 0.001))
    [ 11; 12; 13 ]

let test_maxcut_two_thirds () =
  List.iter
    (fun seed ->
      let split =
        Split.make
          (Gen.random_weights ~seed (Gen.random_connected ~seed 13 0.35))
          ~side:(Array.init 13 (fun v -> v < 6))
      in
      let g = split.Split.graph in
      let r = Approx_protocols.maxcut_weighted_two_thirds split in
      let value, side = r.Approx_protocols.value in
      check_int "value consistent" (Maxcut.cut_weight g side) value;
      let opt = fst (Maxcut.max_cut g) in
      check "2/3 guarantee" true (3 * value >= 2 * opt);
      check "bits O(cut log n)" true
        (r.Approx_protocols.bits <= 200 + (Split.cut_size split * 64)))
    [ 21; 22; 23; 24 ]

(* ------------------------------------------------------------------ *)
(* Claims 5.6, 5.8, 5.9                                                *)
(* ------------------------------------------------------------------ *)

let test_mvc_three_halves () =
  List.iter
    (fun seed ->
      let g = Gen.random_connected ~seed 13 0.3 in
      let rng = Random.State.make [| seed; 3 |] in
      for v = 0 to 12 do
        Graph.set_vweight g v (1 + Random.State.int rng 9)
      done;
      let split = Split.make g ~side:(Array.init 13 (fun v -> v < 6)) in
      let r = Approx_protocols.mvc_three_halves split in
      let total = Array.fold_left ( + ) 0 (Graph.vweights g) in
      let opt = total - fst (Mis.max_weight_set g) in
      check "feasible weight at least opt" true (r.Approx_protocols.value >= opt);
      check "3/2 guarantee" true (2 * r.Approx_protocols.value <= 3 * opt))
    [ 31; 32; 33; 34 ]

let test_mds_two_approx () =
  List.iter
    (fun seed ->
      let g = Gen.random_connected ~seed 13 0.3 in
      let rng = Random.State.make [| seed; 5 |] in
      for v = 0 to 12 do
        Graph.set_vweight g v (1 + Random.State.int rng 9)
      done;
      let split = Split.make g ~side:(Array.init 13 (fun v -> v < 6)) in
      let r = Approx_protocols.mds_two_approx split in
      check "dominates" true (Domset.is_dominating g r.Approx_protocols.value);
      let weight_of set = List.fold_left (fun acc v -> acc + Graph.vweight g v) 0 set in
      let opt = fst (Domset.min_weight_set g) in
      check "2-approximation" true (weight_of r.Approx_protocols.value <= 2 * opt);
      check "bits O(cut log n)" true
        (r.Approx_protocols.bits <= 200 + (Split.cut_size split * 128)))
    [ 41; 42; 43; 44 ]

let test_maxis_half () =
  List.iter
    (fun seed ->
      let g = Gen.random_connected ~seed 13 0.3 in
      let split = Split.make g ~side:(Array.init 13 (fun v -> v < 6)) in
      let r = Approx_protocols.maxis_half split in
      let opt = Mis.alpha g in
      check "1/2 guarantee" true (2 * r.Approx_protocols.value >= opt);
      check "feasible" true (r.Approx_protocols.value <= opt);
      check "tiny bit cost" true (r.Approx_protocols.bits <= 64))
    [ 51; 52; 53 ]

(* ------------------------------------------------------------------ *)
(* Claim 5.11: nondeterministic flow protocols                         *)
(* ------------------------------------------------------------------ *)

let test_flow_nondet () =
  List.iter
    (fun seed ->
      let g = Gen.random_weights ~seed (Gen.random_connected ~seed 10 0.35) in
      let split = Split.make g ~side:(Array.init 10 (fun v -> v < 5)) in
      let network = Flow.of_graph g in
      let value = Flow.max_flow network ~s:0 ~t:9 in
      List.iter
        (fun k ->
          let ge = Nondet.flow_ge split ~s:0 ~t:9 ~k in
          let lt = Nondet.flow_lt split ~s:0 ~t:9 ~k in
          check "ge accepted iff flow >= k" (value >= k) ge.Nondet.accepted;
          check "lt accepted iff flow < k" (value < k) lt.Nondet.accepted;
          check "bits O(cut log W)" true
            (ge.Nondet.bits + lt.Nondet.bits
            <= 200 + (Split.cut_size split * 64)))
        [ max 1 (value - 1); value; value + 1 ])
    [ 61; 62; 63 ]

(* ------------------------------------------------------------------ *)
(* Theorem 4.8: local aggregate simulation                             *)
(* ------------------------------------------------------------------ *)

let test_aggregate_simulation () =
  let p = Ch_lbgraphs.Mds_restricted_lb.make_params ~seed:1 ~ell:6 ~t_count:6 ~r:2 () in
  let x = Ch_cc.Bits.random ~seed:5 6 and y = Ch_cc.Bits.random ~seed:6 6 in
  let fam = Ch_lbgraphs.Mds_restricted_lb.family p in
  let g = Ch_core.Framework.graph_of (Ch_core.Framework.build fam x y) in
  let owner v =
    match Ch_lbgraphs.Mds_restricted_lb.owner p v with
    | `Alice -> Aggregate.Alice
    | `Bob -> Aggregate.Bob
    | `Shared -> Aggregate.Shared
  in
  List.iter
    (fun algo_name ->
      let algo =
        match algo_name with
        | `Max -> Aggregate.flood_max ~rounds:4
        | `Sum -> Aggregate.gossip_sum ~rounds:4
      in
      let central = Aggregate.run_centralized g algo in
      let sim = Aggregate.simulate_two_party g ~owner algo in
      check "simulation matches the centralized run" true
        (central = sim.Aggregate.states);
      check "bits charged only for shared vertices" true
        (sim.Aggregate.bits > 0 && sim.Aggregate.shared = 6))
    [ `Max; `Sum ]

let test_aggregate_no_shared_is_free () =
  let g = Gen.random_connected ~seed:9 12 0.3 in
  let owner v = if v < 6 then Aggregate.Alice else Aggregate.Bob in
  let sim = Aggregate.simulate_two_party g ~owner (Aggregate.flood_max ~rounds:3) in
  check_int "no shared vertices, no bits" 0 sim.Aggregate.bits


(* ------------------------------------------------------------------ *)
(* Claim 5.7: the (1+eps) MVC protocol                                 *)
(* ------------------------------------------------------------------ *)

let test_mvc_one_plus_eps () =
  List.iter
    (fun seed ->
      let g = Gen.random_connected ~seed 13 0.3 in
      let split = Split.make g ~side:(Array.init 13 (fun v -> v < 6)) in
      List.iter
        (fun eps ->
          let r = Approx_protocols.mvc_one_plus_eps ~eps split in
          let covered (u, v, _) =
            List.mem u r.Approx_protocols.value || List.mem v r.Approx_protocols.value
          in
          check "is a vertex cover" true (List.for_all covered (Graph.edges g));
          let opt = Mis.min_vertex_cover_size g in
          check "(1+eps) guarantee" true
            (float_of_int (List.length r.Approx_protocols.value)
            <= ((1.0 +. eps) *. float_of_int opt) +. 0.001))
        [ 0.3; 1.0 ])
    [ 71; 72; 73 ]

(* ------------------------------------------------------------------ *)
(* Section 5.2 extras: ¬EQ certificates and the PLS bridge             *)
(* ------------------------------------------------------------------ *)

let test_neq_protocol () =
  let x = Ch_cc.Bits.random ~seed:1 64 and y = Ch_cc.Bits.random ~seed:2 64 in
  let r = Nondet.neq x y in
  check "differing strings accepted" true r.Nondet.accepted;
  check "O(log K) bits" true (r.Nondet.bits <= 8);
  let same = Nondet.neq x x in
  check "equal strings rejected" false same.Nondet.accepted

let test_via_pls () =
  let g = Gen.random_connected ~seed:4 14 0.25 in
  let split = Split.make g ~side:(Array.init 14 (fun v -> v < 7)) in
  let parent = Ch_graph.Props.bfs_tree g 0 in
  let tree =
    List.filter_map
      (fun v ->
        if parent.(v) >= 0 then Some (min v parent.(v), max v parent.(v)) else None)
      (List.init 14 Fun.id)
  in
  let inst = Ch_pls.Verif.make g ~h:tree in
  let r = Nondet.via_pls Ch_pls.Schemes.spanning_tree split inst in
  check "spanning tree certified" true r.Nondet.accepted;
  check "bits O(cut·log n)" true
    (r.Nondet.bits
    <= 32
       * (List.length (Split.cut_vertices split ~alice:true)
         + List.length (Split.cut_vertices split ~alice:false)));
  let bad = Ch_pls.Verif.make g ~h:(List.tl tree) in
  let r_bad = Nondet.via_pls Ch_pls.Schemes.spanning_tree split bad in
  check "broken tree rejected" false r_bad.Nondet.accepted

let () =
  Alcotest.run "limits"
    [
      ( "bounded degree protocols (5.1-5.3)",
        [
          Alcotest.test_case "mvc" `Quick test_mvc_bounded;
          Alcotest.test_case "mds" `Quick test_mds_bounded;
          Alcotest.test_case "maxis" `Quick test_maxis_bounded;
        ] );
      ( "max cut protocols (5.4-5.5)",
        [
          Alcotest.test_case "unweighted" `Quick test_maxcut_unweighted;
          Alcotest.test_case "weighted 2/3" `Quick test_maxcut_two_thirds;
        ] );
      ( "general protocols (5.6, 5.8, 5.9)",
        [
          Alcotest.test_case "mvc 3/2" `Quick test_mvc_three_halves;
          Alcotest.test_case "mvc 1+eps (claim 5.7)" `Quick test_mvc_one_plus_eps;
          Alcotest.test_case "mds 2x" `Quick test_mds_two_approx;
          Alcotest.test_case "maxis 1/2" `Quick test_maxis_half;
        ] );
      ( "nondeterminism (5.11 + 5.2)",
        [
          Alcotest.test_case "flow certificates" `Quick test_flow_nondet;
          Alcotest.test_case "neq certificate" `Quick test_neq_protocol;
          Alcotest.test_case "pls bridge (thm 5.1)" `Quick test_via_pls;
        ] );
      ( "local aggregate (thm 4.8)",
        [
          Alcotest.test_case "simulation fidelity" `Quick test_aggregate_simulation;
          Alcotest.test_case "no shared vertices" `Quick test_aggregate_no_shared_is_free;
        ] );
    ]
