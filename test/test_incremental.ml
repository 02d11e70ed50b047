(* Differential tests for the incremental verification engine: every
   family's derived patcher must produce the instances of its scratch
   build, every incremental family the verdicts of its scratch family,
   and every solver cache must agree with its from-scratch solver on
   random graphs. *)

open Ch_graph
open Ch_cc
open Ch_core
open Ch_lbgraphs
module Cache = Ch_solvers.Cache

let qt = QCheck_alcotest.to_alcotest

(* ---------------------------------------------------------------- *)
(* Family differentials                                             *)
(* ---------------------------------------------------------------- *)

(* A deterministic mix of corner and random input pairs, applied in
   sequence so the remove-previous/add-next patching path is exercised,
   not just the first application. *)
let sample_pairs ~input_bits ~samples =
  let corners =
    [
      (Bits.zeros input_bits, Bits.zeros input_bits);
      (Bits.ones input_bits, Bits.ones input_bits);
      (Bits.ones input_bits, Bits.zeros input_bits);
      (Bits.zeros input_bits, Bits.ones input_bits);
    ]
  in
  corners
  @ List.init samples (fun i ->
        ( Bits.random ~seed:(7000 + (2 * i)) input_bits,
          Bits.random ~seed:(7000 + (2 * i) + 1) input_bits ))

(* The sample pairs, each followed by itself with one bit of x or of y
   flipped, then the sample pairs once more: the patcher flips single
   bits and returns to pairs it has held before. *)
let patch_sequence ~input_bits ~samples =
  let pairs = sample_pairs ~input_bits ~samples in
  let flip z b = Bits.set z b (not (Bits.get z b)) in
  List.concat
    (List.mapi
       (fun i (x, y) ->
         let b = i mod input_bits in
         [ (x, y); (if i mod 2 = 0 then (flip x b, y) else (x, flip y b)) ])
       pairs)
  @ pairs

let same_digraph d d' =
  let vweights d = Array.init (Digraph.n d) (Digraph.vweight d) in
  Digraph.n d = Digraph.n d'
  && Digraph.arcs d = Digraph.arcs d'
  && vweights d = vweights d'

(* everything an instance carries: the kind, the weighted edges or arcs,
   the vertex weights, the terminals and the root *)
let same_instance a b =
  match (a, b) with
  | Framework.Undirected g, Framework.Undirected g' -> Graph.equal_structure g g'
  | Framework.Directed d, Framework.Directed d' -> same_digraph d d'
  | Framework.With_terminals (g, t), Framework.With_terminals (g', t') ->
      Graph.equal_structure g g' && t = t'
  | Framework.Rooted_digraph (d, r, t), Framework.Rooted_digraph (d', r', t') ->
      same_digraph d d' && r = r' && t = t'
  | _ -> false

(* Every registered family's derived patcher, one instance reused over
   the whole sequence, must equal the from-scratch build at every
   step. *)
let patcher_case s =
  Alcotest.test_case (s.Registry.id ^ " core+inputs = build") `Quick (fun () ->
      let fam = s.Registry.scratch s.Registry.default_k in
      let p = Framework.patcher fam in
      List.iteri
        (fun i (x, y) ->
          if not (same_instance (Framework.patch p x y) (Framework.build fam x y)) then
            Alcotest.failf "%s: patched instance differs from build at step %d"
              s.Registry.id i)
        (patch_sequence ~input_bits:fam.Framework.input_bits ~samples:12))

(* Cheap solvers: compare the full 2^K × 2^K verdict trace pair by
   pair.  This is the PR's acceptance differential at k = 2. *)
let check_exhaustive name inc =
  let scratch, _ =
    Framework.verdicts (Framework.Scratch inc.Framework.scratch)
      Pairs.Exhaustive
  in
  let incr, stats =
    Framework.verdicts (Framework.Incremental inc) Pairs.Exhaustive
  in
  Alcotest.(check (array bool)) (name ^ ": exhaustive verdicts") scratch incr;
  Alcotest.(check bool)
    (name ^ ": stats are non-negative")
    true
    (stats.Framework.cache_hits >= 0 && stats.Framework.cache_misses >= 0)

let test_mds_exhaustive () =
  Cache.clear ();
  let inc = Mds_lb.incremental ~k:2 in
  check_exhaustive "mds" inc;
  (* k = 2 is 256 pairs; every pair queries the ball cache *)
  let _, stats =
    Framework.verdicts (Framework.Incremental inc) Pairs.Exhaustive
  in
  Alcotest.(check bool)
    "mds: per-pair cache hits" true
    (stats.Framework.cache_hits >= 256)

let test_maxis_exhaustive () =
  check_exhaustive "maxis" (Maxis_lb.incremental ~k:2)

let test_maxcut_exhaustive () =
  Cache.clear ();
  check_exhaustive "maxcut" (Maxcut_lb.incremental ~k:2)

(* Steiner's from-scratch solve is ~0.2 s per pair, so the exhaustive
   trace is differenced in the bench harness; here corners + random
   pairs keep the suite fast. *)
let check_sampled name inc pairs =
  let fam = inc.Framework.scratch in
  let p = inc.Framework.prepare () in
  List.iteri
    (fun i (x, y) ->
      let scratch = Framework.verdict fam x y in
      Alcotest.(check bool)
        (Printf.sprintf "%s: verdict differential at pair %d" name i)
        scratch
        (p.Framework.pverdict x y))
    pairs

(* The transformed input edges join rows to row copies only, so the
   volatile set the Steiner cache is keyed on — derived from the
   encoding — is the 4k rows and their 4k copies, and it covers every
   pair's input edges. *)
let test_steiner_volatile () =
  let k = 2 in
  let fam = Steiner_lb.family ~k in
  let volatile = Framework.volatile fam in
  let n = Mds_lb.Ix.n ~k in
  Alcotest.(check (list int)) "the rows, then their copies"
    (List.init (4 * k) Fun.id @ List.init (4 * k) (fun v -> n + v))
    volatile;
  let xs = Bits.all (k * k) in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          List.iter
            (fun (u, v) ->
              if not (List.mem u volatile && List.mem v volatile) then
                Alcotest.failf "input edge (%d, %d) leaves the volatile set" u v)
            (Framework.edges fam x y))
        xs)
    xs

let test_steiner_sampled () =
  Cache.clear ();
  check_sampled "steiner" (Steiner_lb.incremental ~k:2)
    (sample_pairs ~input_bits:4 ~samples:8)

let test_maxcut_sampled () =
  Cache.clear ();
  check_sampled "maxcut" (Maxcut_lb.incremental ~k:2)
    (sample_pairs ~input_bits:4 ~samples:16)

let test_hampath_exhaustive () =
  Cache.clear ();
  check_exhaustive "hampath" (Hampath_lb.incremental ~k:2)

let test_verify_counts () =
  let inc = Mds_lb.incremental ~k:2 in
  let fam = inc.Framework.scratch in
  let counts engine mode =
    let v, _ = Framework.verdicts engine mode in
    (Framework.failures fam mode v, Array.length v)
  in
  List.iter
    (fun (label, mode) ->
      Alcotest.(check (pair int int)) (label ^ " counts")
        (counts (Framework.Scratch fam) mode)
        (counts (Framework.Incremental inc) mode))
    [ ("exhaustive", Pairs.Exhaustive);
      ("random", Pairs.Sampled { seed = 42; samples = 50 }) ]

(* ---------------------------------------------------------------- *)
(* Solver caches vs from-scratch solvers on random graphs           *)
(* ---------------------------------------------------------------- *)

(* Random extra edges among the non-adjacent pairs of [allowed]. *)
let random_extra ~seed g allowed =
  let non_edges =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun v ->
            if u < v && not (Graph.mem_edge g u v) then Some (u, v) else None)
          allowed)
      allowed
  in
  let st = Random.State.make [| seed |] in
  List.filter (fun _ -> Random.State.bool st) non_edges

(* The table only sees the volatile vertices, so [extra] stays inside a
   random volatile subset.  The draw's residue mod 3 picks the case:
   any subset, a subset with no terminals (the projection then holds
   connectors only), or a dense core, which often connects within [cap]
   on its own.  Three queries share one prepared instance, so the
   stamped query scratch is reused. *)
let prop_steiner_cache =
  QCheck.Test.make ~count:200 ~name:"Cache.steiner_min_extra = Steiner.min_extra_nodes"
    QCheck.(pair (int_range 3 9) (int_range 0 10_000))
    (fun (n, seed) ->
      let mode = seed mod 3 in
      let g = Gen.gnp ~seed n (if mode = 2 then 0.6 else 0.3) in
      let nterm = min n (2 + (seed mod (n - 1))) in
      let terminals = List.init nterm Fun.id in
      let cap = seed mod 4 in
      let st = Random.State.make [| seed; n |] in
      let volatile =
        List.filter
          (fun v -> (mode <> 1 || v >= nterm) && Random.State.bool st)
          (List.init n Fun.id)
      in
      Cache.clear ();
      let c = Cache.steiner_prepare g ~terminals ~volatile ~cap in
      List.for_all
        (fun salt ->
          let extra = random_extra ~seed:(seed + salt) g volatile in
          let g' = Graph.copy g in
          List.iter (fun (u, v) -> Graph.add_edge g' u v) extra;
          Cache.steiner_min_extra c ~extra
          = Ch_solvers.Steiner.min_extra_nodes ~cap g' terminals)
        [ 1; 2; 3 ])

let test_steiner_non_volatile () =
  Cache.clear ();
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let c = Cache.steiner_prepare g ~terminals:[ 0; 4 ] ~volatile:[ 1; 3 ] ~cap:3 in
  Alcotest.(check (option int)) "core path" (Some 3) (Cache.steiner_min_extra c ~extra:[]);
  Alcotest.(check (option int))
    "volatile shortcut" (Some 2)
    (Cache.steiner_min_extra c ~extra:[ (1, 3) ]);
  Alcotest.check_raises "non-volatile endpoint"
    (Invalid_argument "Cache.steiner_min_extra: extra edge endpoint not volatile")
    (fun () -> ignore (Cache.steiner_min_extra c ~extra:[ (1, 3); (0, 2) ]))

(* The pattern table against a full search of core + extra.  Candidates
   are drawn from every ordered pair, so they share tails and heads and
   some duplicate core arcs; [extra] is a random subset of them, given
   twice over in every third draw.  At most 10 candidates keep the
   pattern count under the cap.  Three queries share one table. *)
let prop_hampath_cache =
  QCheck.Test.make ~count:200 ~name:"Cache.hampath_directed_path = Hamilton.directed_path"
    QCheck.(pair (int_range 2 8) (int_range 0 10_000))
    (fun (n, seed) ->
      let core = Gen.random_digraph ~seed n 0.25 in
      let st = Random.State.make [| seed; n |] in
      let pairs =
        List.concat_map
          (fun u -> List.filter_map (fun v -> if u <> v then Some (u, v) else None) (List.init n Fun.id))
          (List.init n Fun.id)
      in
      let candidates =
        List.filteri (fun i _ -> i < 10) (List.filter (fun _ -> Random.State.int st 3 = 0) pairs)
      in
      Cache.clear ();
      let c = Cache.hampath_prepare core ~candidates in
      List.for_all
        (fun salt ->
          let extra = List.filter (fun _ -> Random.State.bool st) candidates in
          let extra = if (seed + salt) mod 3 = 0 then extra @ extra else extra in
          let g = Digraph.copy core in
          List.iter (fun (u, v) -> if not (Digraph.mem_arc g u v) then Digraph.add_arc g u v) extra;
          match (Cache.hampath_directed_path c ~extra, Ch_solvers.Hamilton.directed_path g) with
          | Some p, Some _ -> Ch_solvers.Hamilton.is_directed_path g p
          | None, None -> true
          | _ -> false)
        [ 1; 2; 3 ])

let test_hampath_guards () =
  Cache.clear ();
  let c = Cache.hampath_prepare (Digraph.of_arcs 3 [ (0, 1) ]) ~candidates:[ (1, 2); (2, 0) ] in
  Alcotest.(check (option (list int))) "no extra arc" None (Cache.hampath_directed_path c ~extra:[]);
  Alcotest.(check (option (list int)))
    "a candidate completes the path" (Some [ 0; 1; 2 ])
    (Cache.hampath_directed_path c ~extra:[ (1, 2) ]);
  Alcotest.check_raises "non-candidate arc"
    (Invalid_argument "Cache.hampath_directed_path: extra arc not a candidate")
    (fun () -> ignore (Cache.hampath_directed_path c ~extra:[ (1, 2); (2, 1) ]));
  (* 43 681 patterns at k = 4: the cap refuses the table before any search *)
  Alcotest.check_raises "k = 4 prepare"
    (Invalid_argument "Cache.hampath_prepare: more than 4096 arc patterns")
    (fun () -> ignore ((Hampath_lb.incremental ~k:4).Framework.prepare ()))

let prop_maxcut_cache =
  QCheck.Test.make ~count:60 ~name:"Cache.maxcut_max = Maxcut.max_cut"
    QCheck.(pair (int_range 2 9) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.random_weights ~seed (Gen.gnp ~seed n 0.4) in
      (* any volatile subset, listed in any order *)
      let st = Random.State.make [| seed; 3 |] in
      let order =
        List.init n (fun v -> (Random.State.bits st, v)) |> List.sort compare |> List.map snd
      in
      let s = Random.State.int st (n + 1) in
      let volatile = List.filteri (fun i _ -> i < s) order in
      let extra =
        List.mapi
          (fun i (u, v) -> (u, v, 1 + ((seed + i) mod 7)))
          (random_extra ~seed:(seed + 1) g volatile)
      in
      let g' = Graph.copy g in
      List.iter (fun (u, v, w) -> Graph.add_edge ~w g' u v) extra;
      Cache.clear ();
      let c = Cache.maxcut_prepare g ~volatile in
      Cache.maxcut_max c ~extra = fst (Ch_solvers.Maxcut.max_cut g'))

let prop_mis_cache =
  QCheck.Test.make ~count:60 ~name:"Cache.mis_alpha = Mis.alpha"
    QCheck.(pair (int_range 2 10) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed n 0.35 in
      let volatile = List.init ((n / 2) + 1) Fun.id in
      let extra = random_extra ~seed:(seed + 1) g volatile in
      let g' = Graph.copy g in
      List.iter (fun (u, v) -> Graph.add_edge g' u v) extra;
      Cache.clear ();
      let c = Cache.mis_prepare g ~volatile in
      Cache.mis_alpha c ~extra = Ch_solvers.Mis.alpha g')

let prop_domset_cache =
  QCheck.Test.make ~count:60 ~name:"Domset.min_size ~balls:(Cache.domset_balls) = plain"
    QCheck.(pair (int_range 2 10) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed n 0.3 in
      let extra = random_extra ~seed:(seed + 1) g (List.init n Fun.id) in
      let g' = Graph.copy g in
      List.iter (fun (u, v) -> Graph.add_edge g' u v) extra;
      Cache.clear ();
      let c = Cache.domset_prepare g ~radius:1 in
      let balls = Cache.domset_balls c ~extra in
      Ch_solvers.Domset.min_size ~balls g' = Ch_solvers.Domset.min_size g')

(* ---------------------------------------------------------------- *)
(* Memoization behavior                                             *)
(* ---------------------------------------------------------------- *)

let mds_core () = Framework.graph_of (Framework.core (Mds_lb.family ~k:2))

let test_memo_counters () =
  Cache.clear ();
  let g = mds_core () in
  let c1 = Cache.domset_prepare g ~radius:1 in
  let s1 = Cache.domset_stats c1 in
  Alcotest.(check (pair int int))
    "first prepare is a miss" (0, 1)
    (s1.Cache.hits, s1.Cache.misses);
  (* a structurally equal but physically distinct graph must hit *)
  let c2 = Cache.domset_prepare (mds_core ()) ~radius:1 in
  let s2 = Cache.domset_stats c2 in
  Alcotest.(check (pair int int))
    "memoized prepare is a hit" (1, 0)
    (s2.Cache.hits, s2.Cache.misses);
  ignore (Cache.domset_balls c2 ~extra:[]);
  let s3 = Cache.domset_stats c2 in
  Alcotest.(check int) "queries count as hits" 2 s3.Cache.hits;
  Cache.clear ();
  let c4 = Cache.domset_prepare g ~radius:1 in
  let s4 = Cache.domset_stats c4 in
  Alcotest.(check (pair int int))
    "clear drops the memo" (0, 1)
    (s4.Cache.hits, s4.Cache.misses)

let test_memo_aux_keying () =
  Cache.clear ();
  let g = mds_core () in
  let volatile = List.init (Graph.n g) Fun.id in
  let _ = Cache.steiner_prepare g ~terminals:[ 0; 1 ] ~volatile ~cap:1 in
  (* same graph, different parameters: must rebuild, not hit *)
  let c = Cache.steiner_prepare g ~terminals:[ 0; 1; 2 ] ~volatile ~cap:1 in
  let s = Cache.steiner_stats c in
  Alcotest.(check (pair int int))
    "different terminals miss" (0, 1)
    (s.Cache.hits, s.Cache.misses);
  let c' = Cache.steiner_prepare g ~terminals:[ 0; 1 ] ~volatile ~cap:2 in
  let s' = Cache.steiner_stats c' in
  Alcotest.(check (pair int int))
    "different cap misses" (0, 1)
    (s'.Cache.hits, s'.Cache.misses);
  let c'' = Cache.steiner_prepare g ~terminals:[ 0; 1 ] ~volatile:[ 0; 1 ] ~cap:1 in
  let s'' = Cache.steiner_stats c'' in
  Alcotest.(check (pair int int))
    "different volatile set misses" (0, 1)
    (s''.Cache.hits, s''.Cache.misses)

(* ---------------------------------------------------------------- *)
(* Seed derivation: the sampled mode is schedule-independent        *)
(* ---------------------------------------------------------------- *)

(* A deliberately broken family (its goal At_least 0 makes P always
   TRUE) makes the failure count non-trivial: it fails exactly on the
   non-intersecting pairs.  The expected count is recomputed here
   straight from the documented derivation — corners first, then sample
   i drawn from seeds (seed + 2i, seed + 2i + 1) — and must match under
   any worker count, pinning both the sampling-with-replacement
   semantics and the per-index seed scheme. *)
let test_seed_derivation () =
  let base = Mds_lb.family ~k:2 in
  let broken = { base with Framework.goal = Framework.At_least 0 } in
  let seed = 1234 and samples = 200 in
  let k = broken.Framework.input_bits in
  let corners =
    [
      (Bits.zeros k, Bits.zeros k);
      (Bits.ones k, Bits.ones k);
      (Bits.ones k, Bits.zeros k);
      (Bits.zeros k, Bits.ones k);
    ]
  in
  let drawn =
    corners
    @ List.init samples (fun i ->
          ( Bits.random ~seed:(seed + (2 * i)) k,
            Bits.random ~seed:(seed + (2 * i) + 1) k ))
  in
  let expected =
    List.length
      (List.filter (fun (x, y) -> not (broken.Framework.f x y)) drawn)
  in
  let count pool =
    let mode = Pairs.Sampled { seed; samples } in
    let v, _ = Framework.verdicts ~pool (Framework.Scratch broken) mode in
    (Framework.failures broken mode v, Array.length v)
  in
  let p1 = Pool.create ~jobs:1 () in
  let p4 = Pool.create ~jobs:4 () in
  let f1, t1 = count p1 in
  let f4, t4 = count p4 in
  Pool.shutdown p1;
  Pool.shutdown p4;
  Alcotest.(check (pair int int)) "1 worker matches the formula"
    (expected, samples + 4) (f1, t1);
  Alcotest.(check (pair int int)) "4 workers match the formula"
    (expected, samples + 4) (f4, t4)

let () =
  Alcotest.run "incremental"
    [
      ( "graph differentials",
        List.map patcher_case (Registry.all (Families.catalog ()))
        @ [
            Alcotest.test_case "steiner volatile covers inputs" `Quick
              test_steiner_volatile;
          ] );
      ( "verdict differentials",
        [
          Alcotest.test_case "mds exhaustive" `Quick test_mds_exhaustive;
          Alcotest.test_case "maxis exhaustive" `Quick test_maxis_exhaustive;
          Alcotest.test_case "maxcut exhaustive" `Slow test_maxcut_exhaustive;
          Alcotest.test_case "steiner sampled" `Slow test_steiner_sampled;
          Alcotest.test_case "maxcut sampled" `Quick test_maxcut_sampled;
          Alcotest.test_case "hampath exhaustive" `Slow test_hampath_exhaustive;
          Alcotest.test_case "verifier counts" `Quick test_verify_counts;
        ] );
      ( "solver caches",
        [
          qt prop_steiner_cache;
          Alcotest.test_case "steiner non-volatile endpoint" `Quick
            test_steiner_non_volatile;
          qt prop_hampath_cache;
          Alcotest.test_case "hampath non-candidate arc and k = 4 cap" `Quick
            test_hampath_guards;
          qt prop_maxcut_cache;
          qt prop_mis_cache;
          qt prop_domset_cache;
        ] );
      ( "memoization",
        [
          Alcotest.test_case "hit/miss counters" `Quick test_memo_counters;
          Alcotest.test_case "aux keying" `Quick test_memo_aux_keying;
        ] );
      ( "determinism",
        [ Alcotest.test_case "seed derivation" `Quick test_seed_derivation ] );
    ]
