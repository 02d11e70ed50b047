open Ch_cc
open Ch_core
open Ch_lbgraphs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let assert_family ?(samples = 12) ?(exhaustive = false) name fam =
  let mode =
    if exhaustive then Pairs.Exhaustive
    else Pairs.Sampled { seed = 11; samples }
  in
  let verdicts, _ = Framework.verdicts (Framework.Scratch fam) mode in
  let failures = Framework.failures fam mode verdicts in
  let total = Array.length verdicts in
  Alcotest.(check string)
    (name ^ " iff-predicate")
    (Printf.sprintf "0/%d" total)
    (Printf.sprintf "%d/%d" failures total);
  check (name ^ " sidedness") true (Framework.check_sidedness ~seed:5 ~samples:5 fam)

(* ------------------------------------------------------------------ *)
(* Theorem 2.1: MDS                                                    *)
(* ------------------------------------------------------------------ *)

let test_mds_k2 () = assert_family ~exhaustive:true "mds k=2" (Mds_lb.family ~k:2)

let test_mds_k4 () = assert_family ~samples:16 "mds k=4" (Mds_lb.family ~k:4)

let test_mds_structure () =
  List.iter
    (fun k ->
      let fam = Mds_lb.family ~k in
      check_int "n = 4k + 12 log k" ((4 * k) + (12 * Bitgadget.log2 k))
        fam.Framework.nvertices;
      check_int "cut = 4 log k" (4 * Bitgadget.log2 k) (Framework.cut_size fam))
    [ 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Theorems 2.2-2.5: Hamiltonian constructions                         *)
(* ------------------------------------------------------------------ *)

let test_hampath_k2 () =
  assert_family ~exhaustive:true "hamiltonian path k=2" (Hampath_lb.path_family ~k:2)

let test_hamcycle_k2 () =
  assert_family ~samples:16 "hamiltonian cycle k=2" (Hampath_lb.cycle_family ~k:2)

let test_undirected_variants_k2 () =
  assert_family ~samples:8 "undirected HC k=2" (Hampath_lb.undirected_cycle_family ~k:2);
  assert_family ~samples:8 "undirected HP k=2" (Hampath_lb.undirected_path_family ~k:2);
  assert_family ~samples:8 "2-ECSS k=2" (Hampath_lb.ecss_family ~k:2)

let test_hampath_structure () =
  List.iter
    (fun k ->
      let fam = Hampath_lb.path_family ~k in
      let t = Bitgadget.log2 k in
      check_int "n = 6 + 4k + 2 log k (2 + 6k)"
        (6 + (4 * k) + (2 * t * (2 + (6 * k))))
        fam.Framework.nvertices;
      check "cut O(log k)" true (Framework.cut_size fam <= (24 * t) + 2))
    [ 2; 4; 8 ]

(* the Claim 2.1 constructive path is a valid Hamiltonian path at every
   scale — search is exhausted only at k=2, but the completeness direction
   holds for any k *)
let test_hampath_witness_paths () =
  List.iter
    (fun (k, i, j, extra) ->
      let kk = k * k in
      let x = Bits.of_fun kk (fun b -> b = (i * k) + j || List.mem b extra) in
      let y = Bits.of_fun kk (fun b -> b = (i * k) + j) in
      let dg = Hampath_lb.build ~k x y in
      let p = Hampath_lb.witness_path ~k x y ~i ~j in
      check
        (Printf.sprintf "witness path valid at k=%d i=%d j=%d" k i j)
        true
        (Ch_solvers.Hamilton.is_directed_path dg p))
    [ (2, 0, 1, []); (2, 1, 1, [ 0 ]); (4, 1, 2, [ 3; 7 ]); (8, 5, 6, [ 1 ]);
      (16, 9, 3, [ 17; 200 ]) ]

(* ------------------------------------------------------------------ *)
(* Theorem 2.7: Steiner tree                                           *)
(* ------------------------------------------------------------------ *)

let test_steiner_k2 () = assert_family ~samples:8 "steiner k=2" (Steiner_lb.family ~k:2)

let test_steiner_structure () =
  let fam = Steiner_lb.family ~k:4 in
  check_int "n doubles" (2 * Mds_lb.Ix.n ~k:4) fam.Framework.nvertices;
  check "cut O(log k)" true (Framework.cut_size fam <= (8 * Bitgadget.log2 4) + 2)

(* ------------------------------------------------------------------ *)
(* Theorem 2.8: max cut                                                *)
(* ------------------------------------------------------------------ *)

let test_maxcut_k2 () = assert_family ~samples:8 "max-cut k=2" (Maxcut_lb.family ~k:2)

let test_maxcut_structure () =
  List.iter
    (fun k ->
      let fam = Maxcut_lb.family ~k in
      check_int "n = 4k + 8 log k + 5"
        ((4 * k) + (8 * Bitgadget.log2 k) + 5)
        fam.Framework.nvertices;
      check_int "cut = 4 log k + 1" ((4 * Bitgadget.log2 k) + 1) (Framework.cut_size fam))
    [ 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Section 3: exact MaxIS/MVC and the bounded-degree pipeline          *)
(* ------------------------------------------------------------------ *)

let test_maxis_k2 () =
  assert_family ~exhaustive:true "maxis k=2" (Maxis_lb.family ~k:2);
  assert_family ~exhaustive:true "mvc k=2" (Maxis_lb.mvc_family ~k:2)

let test_maxis_k4 () = assert_family ~samples:20 "maxis k=4" (Maxis_lb.family ~k:4)

let test_bounded_degree_pipeline () =
  let k = 2 in
  (* predicate through the verified chain equals ¬DISJ *)
  let pairs =
    (Bits.zeros 4, Bits.zeros 4)
    :: (Bits.ones 4, Bits.ones 4)
    :: (Bits.ones 4, Bits.zeros 4)
    :: List.init 20 (fun i ->
           (Bits.random ~seed:(900 + i) 4, Bits.random ~seed:(950 + i) 4))
  in
  List.iter
    (fun (x, y) ->
      let inst = Bounded_degree.build ~k x y in
      check "bounded-degree predicate iff intersecting"
        (Ch_cc.Commfn.intersecting x y)
        (Bounded_degree.predicate inst))
    pairs

let test_bounded_degree_structure () =
  let inst = Bounded_degree.build ~k:2 (Bits.zeros 4) (Bits.ones 4) in
  let g = inst.Bounded_degree.graph in
  check "max degree 5" true (Ch_graph.Graph.max_degree g <= 5);
  check "connected" true (Ch_graph.Props.connected g);
  check "diameter O(log n) (measured constant 8)" true
    (let n = float_of_int (Ch_graph.Graph.n g) in
     float_of_int (Ch_graph.Props.diameter g) <= 8.0 *. (log n /. log 2.0));
  check_int "cut equals the base family cut" 4 (Bounded_degree.cut_size inst)

(* the chain alpha agrees with the direct solver on one instance *)
let test_bounded_degree_alpha_direct () =
  (* a smaller base: k=2 with densest inputs minimizes |E|; still ~1500
     vertices, so check a trimmed variant instead: the equality was already
     established per-stage in test_sat; here spot-check m and targets *)
  let inst = Bounded_degree.build ~k:2 (Bits.ones 4) (Bits.ones 4) in
  check_int "alpha' = base + m + m_exp"
    (inst.Bounded_degree.base_alpha + inst.Bounded_degree.m_base
   + inst.Bounded_degree.m_exp)
    (Bounded_degree.alpha' inst)

let test_mvc_to_mds_reduction () =
  (* Theorem 3.3: γ(reduction(G)) = τ(G) on random graphs *)
  List.iter
    (fun seed ->
      let g = Ch_graph.Gen.random_connected ~seed 9 0.35 in
      let reduced = Bounded_degree.mvc_to_mds g in
      check_int "gamma equals tau"
        (Ch_solvers.Mis.min_vertex_cover_size g)
        (Ch_solvers.Domset.min_size reduced))
    [ 3; 5; 7; 9; 11 ]


(* ------------------------------------------------------------------ *)
(* Theorem 3.4 variant: 2-spanner via the hub reduction                *)
(* ------------------------------------------------------------------ *)

let test_spanner_hub_identity () =
  (* min 2-spanner cost of the hub graph = W * gamma(G), on random graphs *)
  List.iter
    (fun seed ->
      let g = Ch_graph.Gen.random_connected ~seed 7 0.35 in
      let hub = Spanner_lb.hub_reduction g ~w:5 in
      check_int "hub spanner cost = W * gamma"
        (5 * Ch_solvers.Domset.min_size g)
        (fst (Ch_solvers.Spanner.min_weight_2_spanner hub)))
    [ 2; 4; 6; 8 ]

let test_spanner_family () =
  assert_family ~samples:10 "2-spanner family" (Spanner_lb.family ~k:2)

(* ------------------------------------------------------------------ *)
(* Section 4: approximation families                                   *)
(* ------------------------------------------------------------------ *)

let approx_params = Maxis_approx_lb.make_params ~ell:2 ~k:2 ()

let test_maxis_approx_weighted () =
  assert_family ~exhaustive:true "weighted 7/8 family"
    (Maxis_approx_lb.weighted_family approx_params)

let test_maxis_approx_unweighted () =
  assert_family ~samples:10 "unweighted 7/8 family"
    (Maxis_approx_lb.unweighted_family approx_params)

let test_maxis_approx_linear () =
  assert_family ~exhaustive:true "5/6 family"
    (Maxis_approx_lb.linear_family approx_params)

let test_maxis_approx_gap () =
  (* the no-instances land at exactly no_weight, the yes at yes_weight *)
  let p = approx_params in
  let seen_yes = ref false and seen_no = ref false in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let g = Maxis_approx_lb.build_weighted p x y in
          let w = fst (Ch_solvers.Mis.max_weight_set g) in
          if Ch_cc.Commfn.intersecting x y then begin
            seen_yes := true;
            check_int "yes weight" (Maxis_approx_lb.yes_weight p) w
          end
          else begin
            seen_no := true;
            check "no weight at most 7l+4t" true (w <= Maxis_approx_lb.no_weight p)
          end)
        [ Bits.zeros 4; Bits.ones 4 ])
    [ Bits.zeros 4; Bits.ones 4 ];
  check "both cases exercised" true (!seen_yes && !seen_no)

let test_kmds_families () =
  let p2 = Kmds_lb.make_params ~seed:1 ~k:2 ~ell:6 ~t_count:6 ~r:2 () in
  assert_family ~samples:20 "2-MDS family" (Kmds_lb.family p2);
  let p3 = Kmds_lb.make_params ~seed:1 ~k:3 ~ell:6 ~t_count:6 ~r:2 () in
  assert_family ~samples:12 "3-MDS family" (Kmds_lb.family p3);
  check "2-MDS gap" true
    (List.for_all Fun.id
       (List.init 15 (fun i ->
            Kmds_lb.gap_holds p2
              (Bits.random ~seed:(100 + i) 6)
              (Bits.random ~seed:(200 + i) 6))))

let test_covering_property () =
  let c = Covering.construct ~seed:3 ~ell:8 ~t_count:8 ~r:2 () in
  check "verified" true (Covering.property_holds ~ell:8 ~r:2 c.Covering.sets);
  check_int "t sets" 8 (Array.length c.Covering.sets)

let test_steiner_approx_families () =
  let p = Steiner_approx_lb.make_params ~seed:1 ~ell:6 ~t_count:5 ~r:2 () in
  assert_family ~samples:8 "node-weighted steiner family"
    (Steiner_approx_lb.node_weighted_family p);
  assert_family ~samples:8 "directed steiner family"
    (Steiner_approx_lb.directed_family p);
  check "node-weighted gap" true
    (List.for_all Fun.id
       (List.init 8 (fun i ->
            Steiner_approx_lb.node_weighted_gap_holds p
              (Bits.random ~seed:(300 + i) 5)
              (Bits.random ~seed:(400 + i) 5))));
  check "directed gap" true
    (List.for_all Fun.id
       (List.init 8 (fun i ->
            Steiner_approx_lb.directed_gap_holds p
              (Bits.random ~seed:(500 + i) 5)
              (Bits.random ~seed:(600 + i) 5))))

let test_restricted_mds_family () =
  let p = Mds_restricted_lb.make_params ~seed:1 ~ell:6 ~t_count:6 ~r:2 () in
  assert_family ~samples:24 "restricted MDS family" (Mds_restricted_lb.family p);
  check "gap" true
    (List.for_all Fun.id
       (List.init 15 (fun i ->
            Mds_restricted_lb.gap_holds p
              (Bits.random ~seed:(700 + i) 6)
              (Bits.random ~seed:(800 + i) 6))))

(* ------------------------------------------------------------------ *)
(* Multiparty bit gadgets (sec 2 / arXiv:1901.01630)                   *)
(* ------------------------------------------------------------------ *)

let test_bitgadget_k2 () =
  assert_family ~exhaustive:true "bitgadget k=2" (Bitgadget_lb.family ~k:2)

let test_bitgadget_k4 () =
  assert_family ~exhaustive:true "bitgadget k=4" (Bitgadget_lb.family ~k:4)

let test_bitgadget_structure () =
  List.iter
    (fun k ->
      let t = Bitgadget.log2 k in
      let fam = Bitgadget_lb.family ~k in
      check_int "n = 2k + 6 log k + 2"
        ((2 * k) + (6 * t) + 2)
        fam.Framework.nvertices;
      check_int "two-party cut = 2 log k" (2 * t) (Framework.cut_size fam);
      let partition = Bitgadget_lb.partition ~k in
      check_int "4 parts" 4 (Array.fold_left max 0 partition + 1);
      check_int "partition covers every vertex" fam.Framework.nvertices
        (Array.length partition);
      (* the multicut is input-independent: row-gadget code edges plus the
         side-crossing gadget edges *)
      let mc =
        Framework.multicut_info fam ~partition
      in
      check_int "multicut = 2kt + 2t"
        ((2 * k * t) + (2 * t))
        (Array.length mc.Framework.mc_edges))
    [ 2; 4; 8 ]

(* A registry reduction sweep at scale k: every decision is right, every
   transcript equals its oracle and stays within the Theorem 1.1 budget,
   and bits cross the (multi)cut on every pair. *)
let check_reduction_sweep id ~k =
  match
    Ch_reduction.Bound.sweep_registry
      (Registry.find_exn (Families.catalog ()) id)
      ~k
  with
  | None -> Alcotest.failf "%s has no reduction" id
  | Some (rows, rep, _) ->
      let open Ch_reduction.Bound in
      check (id ^ " decides f") true rep.rep_all_correct;
      check (id ^ " transcript = oracle") true rep.rep_all_match;
      check (id ^ " within budget") true rep.rep_all_within_budget;
      check (id ^ " swept some pairs") true (rows <> []);
      List.iter
        (fun r ->
          check "some bits cross the cut" true
            (r.bt.Ch_reduction.Simulate.cut_bits > 0))
        rows

(* the t=4 simulation end-to-end: four parties decide intersection with
   every cross-part message charged against the multicut *)
let test_bitgadget_t4_simulation () = check_reduction_sweep "bitgadget" ~k:4

(* ------------------------------------------------------------------ *)
(* The registry: one catalog drives the CLI, bench and these tests     *)
(* ------------------------------------------------------------------ *)

let test_registry_catalog () =
  let reg = Families.catalog () in
  let ids = Registry.ids reg in
  check_int "20 families" 20 (List.length ids);
  check "ids unique" true
    (List.length (List.sort_uniq compare ids) = List.length ids);
  List.iter
    (fun s ->
      check (s.Registry.id ^ " paper_ref non-empty") true (s.Registry.paper_ref <> "");
      check (s.Registry.id ^ " origin non-empty") true (s.Registry.origin <> ""))
    (Registry.all reg);
  (* find / find_exn / unknown-id message *)
  check "find mds" true (Registry.find reg "mds" <> None);
  check "mem 2mds" true (Registry.mem reg "2mds");
  (match Registry.find_exn reg "no-such-family" with
  | exception Invalid_argument msg ->
      check "unknown-id message lists valid ids" true
        (String.length msg > 0
        && String.sub msg 0 14 = "unknown family"
        &&
        let rec contains s sub i =
          if i + String.length sub > String.length s then false
          else String.sub s i (String.length sub) = sub || contains s sub (i + 1)
        in
        contains msg "mds-restricted" 0)
  | _ -> Alcotest.fail "find_exn should raise on unknown id");
  (* duplicate registration is rejected *)
  match Registry.of_specs (Families.all @ [ List.hd Families.all ]) with
  | exception Registry.Duplicate_id "mds" -> ()
  | _ -> Alcotest.fail "duplicate id should raise"

(* Every spec with an incremental descriptor: the memoized per-pair path
   must be bit-identical to the from-scratch solvers over the whole
   exhaustive k=2 input space. *)
let registry_differential_case s =
  let run () =
    match s.Registry.incremental with
    | None -> assert false
    | Some inc ->
        let inc = inc 2 in
        let scratch, _ =
          Framework.verdicts (Framework.Scratch inc.Framework.scratch)
            Pairs.Exhaustive
        in
        let incr, stats =
          Framework.verdicts (Framework.Incremental inc) Pairs.Exhaustive
        in
        Alcotest.(check (array bool)) (s.Registry.id ^ " verdicts") scratch incr;
        check (s.Registry.id ^ " cache used") true
          (stats.Framework.cache_hits + stats.Framework.cache_misses > 0)
  in
  let slow =
    (* the scratch side of these exhaustive sweeps dominates the suite *)
    [ "maxcut"; "maxis-78-unweighted" ]
  in
  Alcotest.test_case
    (s.Registry.id ^ " k=2 exhaustive differential")
    (if List.mem s.Registry.id slow then `Slow else `Quick)
    run

let registry_differential_cases =
  List.map registry_differential_case
    (Registry.filter ~incremental:true (Families.catalog ()))

(* ------------------------------------------------------------------ *)
(* Theorem 1.1 end-to-end: Alice and Bob solve DISJ by simulation      *)
(* ------------------------------------------------------------------ *)

let test_theorem_1_1_simulation () = check_reduction_sweep "mds" ~k:2

let test_lower_bound_calculator () =
  (* the certified bound grows like n^2 / log^2 n for the MDS family *)
  let lb k =
    let fam = Mds_lb.family ~k in
    Framework.lower_bound_rounds ~input_bits:fam.Framework.input_bits
      ~cut:(Framework.cut_size fam) ~n:fam.Framework.nvertices
  in
  check "monotone growth" true (lb 4 > lb 2 && lb 8 > lb 4 && lb 16 > lb 8);
  (* normalized rate should stay within a constant band *)
  let rate k =
    let fam = Mds_lb.family ~k in
    let n = float_of_int fam.Framework.nvertices in
    let logn = log n /. log 2.0 in
    lb k *. logn *. logn /. (n *. n)
  in
  let r16 = rate 16 and r64 = rate 64 in
  check "rate flat within 4x" true (r64 /. r16 < 4.0 && r16 /. r64 < 4.0)

let () =
  Alcotest.run "families"
    [
      ( "mds (thm 2.1)",
        [
          Alcotest.test_case "k=2 exhaustive" `Quick test_mds_k2;
          Alcotest.test_case "k=4 sampled" `Quick test_mds_k4;
          Alcotest.test_case "structure" `Quick test_mds_structure;
        ] );
      ( "hamiltonian (thms 2.2-2.5)",
        [
          Alcotest.test_case "path k=2 exhaustive" `Slow test_hampath_k2;
          Alcotest.test_case "cycle k=2" `Quick test_hamcycle_k2;
          Alcotest.test_case "undirected + ecss" `Quick test_undirected_variants_k2;
          Alcotest.test_case "structure" `Quick test_hampath_structure;
          Alcotest.test_case "claim 2.1 witness paths" `Quick test_hampath_witness_paths;
        ] );
      ( "steiner (thm 2.7)",
        [
          Alcotest.test_case "k=2" `Quick test_steiner_k2;
          Alcotest.test_case "structure" `Quick test_steiner_structure;
        ] );
      ( "max-cut (thm 2.8)",
        [
          Alcotest.test_case "k=2" `Quick test_maxcut_k2;
          Alcotest.test_case "structure" `Quick test_maxcut_structure;
        ] );
      ( "bounded degree (sec 3)",
        [
          Alcotest.test_case "maxis k=2 exhaustive" `Quick test_maxis_k2;
          Alcotest.test_case "maxis k=4" `Quick test_maxis_k4;
          Alcotest.test_case "pipeline iff" `Quick test_bounded_degree_pipeline;
          Alcotest.test_case "pipeline structure" `Quick test_bounded_degree_structure;
          Alcotest.test_case "alpha chain" `Quick test_bounded_degree_alpha_direct;
          Alcotest.test_case "mvc-to-mds" `Quick test_mvc_to_mds_reduction;
          Alcotest.test_case "spanner hub identity" `Quick test_spanner_hub_identity;
          Alcotest.test_case "spanner family" `Quick test_spanner_family;
        ] );
      ( "approximation (sec 4)",
        [
          Alcotest.test_case "weighted 7/8" `Quick test_maxis_approx_weighted;
          Alcotest.test_case "unweighted 7/8" `Quick test_maxis_approx_unweighted;
          Alcotest.test_case "linear 5/6" `Quick test_maxis_approx_linear;
          Alcotest.test_case "gap values" `Quick test_maxis_approx_gap;
          Alcotest.test_case "k-mds" `Quick test_kmds_families;
          Alcotest.test_case "covering designs" `Quick test_covering_property;
          Alcotest.test_case "steiner variants" `Quick test_steiner_approx_families;
          Alcotest.test_case "restricted mds" `Quick test_restricted_mds_family;
        ] );
      ( "bit gadgets (multiparty)",
        [
          Alcotest.test_case "k=2 exhaustive" `Quick test_bitgadget_k2;
          Alcotest.test_case "k=4 exhaustive" `Quick test_bitgadget_k4;
          Alcotest.test_case "structure" `Quick test_bitgadget_structure;
          Alcotest.test_case "t=4 simulation" `Quick test_bitgadget_t4_simulation;
        ] );
      ( "theorem 1.1",
        [
          Alcotest.test_case "alice-bob simulation" `Quick test_theorem_1_1_simulation;
          Alcotest.test_case "lower bound rates" `Quick test_lower_bound_calculator;
        ] );
      ( "registry",
        Alcotest.test_case "catalog" `Quick test_registry_catalog
        :: registry_differential_cases );
    ]
