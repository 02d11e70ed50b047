(* The experiment harness: one table per experiment of DESIGN.md
   (E1..E18), reproducing the *shape* of every lower/upper bound in the
   paper.

     dune exec bench/main.exe                 -- all report tables
     dune exec bench/main.exe -- e1 e7        -- selected tables
     dune exec bench/main.exe -- e1 --json    -- also write BENCH_<ts>.json
     dune exec bench/main.exe -- e1 --json --smoke
                                              -- CI-sized verify benches

   Sweeps fan out over the CH_JOBS-sized domain pool (Ch_core.Pool);
   --json records per-experiment wall time plus a verification
   throughput benchmark (pairs/sec, speedup vs a 1-worker pool, cache
   hit/miss counters, incremental-vs-scratch speedup and per-pair
   differential) to BENCH_<timestamp>.json so the perf trajectory is
   tracked per PR.  --smoke drops the slow from-scratch Maxcut sweep
   from the verify benches.  --json also switches on the Ch_obs
   telemetry layer and embeds one report per bench entry in an "obs"
   section.  Its counters are schedule-independent, so identical across
   CH_JOBS, and they are what the bench gate checks: `hardness
   bench-diff test/bench_baseline.json BENCH_<ts>.json` exits 1 on any
   difference.  The wall times are single-shot reports; perfbench/ owns
   timing. *)

open Ch_cc
open Ch_core
open Ch_lbgraphs

(* Families are resolved through the one registry; the two aliases reach
   construction internals (witness paths, target weights) that sit
   outside the spec record. *)
module H = Hampath_lb
module MC = Maxcut_lb

let reg () = Families.catalog ()

let spec id = Registry.find_exn (reg ()) id

let fam_of ?k id =
  let s = spec id in
  s.Registry.scratch (match k with Some k -> k | None -> s.Registry.default_k)

let log2 x = log (float_of_int x) /. log 2.0

let pmap f xs = Pool.parallel_map (Pool.default ()) f xs

module Obs = Ch_obs.Obs
module Jsonx = Ch_json.Jsonx

(* Monotonic clock: bench walls are immune to wall-clock adjustments. *)
let timed f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, Obs.Clock.seconds_since t0)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let family_row fam ~verified =
  let cut = Framework.cut_size fam in
  let n = fam.Framework.nvertices in
  let k_val = try List.assoc "k" fam.Framework.params with Not_found -> 0 in
  let lb =
    Framework.lower_bound_rounds ~input_bits:fam.Framework.input_bits ~cut ~n
  in
  (k_val, n, fam.Framework.input_bits, cut, lb, verified)

let print_sweep ~rate_label ~rate rows =
  Printf.printf "  %6s %8s %9s %6s %14s %12s  %s\n" "k" "n" "K" "cut"
    "LB (rounds)" rate_label "verified";
  List.iter
    (fun (k, n, bits, cut, lb, verified) ->
      Printf.printf "  %6d %8d %9d %6d %14.1f %12.4f  %s\n" k n bits cut lb
        (rate ~n ~lb) verified)
    rows

(* [(failures, total)] of one engine run over a whole mode *)
let verify_counts ?pool fam engine mode =
  let v, _ = Framework.verdicts ?pool engine mode in
  (Framework.failures fam mode v, Array.length v)

let quick_verify ?(samples = 8) fam =
  let failures, total =
    verify_counts fam (Framework.Scratch fam)
      (Pairs.Sampled { seed = 77; samples })
  in
  Printf.sprintf "%d/%d ok" (total - failures) total

(* ------------------------------------------------------------------ *)
(* E1: exact MDS, Ω̃(n²)                                               *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1 | Theorem 2.1 (Fig 1): exact MDS needs Ω(n²/log² n) rounds";
  let rows =
    pmap
      (fun k ->
        let fam = fam_of "mds" ~k in
        let verified = if k <= 4 then quick_verify fam else "-" in
        family_row fam ~verified)
      [ 2; 4; 8; 16; 32; 64; 128; 256 ]
  in
  print_sweep rows
    ~rate_label:"LB·log²n/n²"
    ~rate:(fun ~n ~lb ->
      let nf = float_of_int n in
      lb *. log2 n *. log2 n /. (nf *. nf));
  Printf.printf
    "  shape: the normalized rate settles to a constant, i.e. LB = Θ(n²/log² n).\n"

(* ------------------------------------------------------------------ *)
(* E2-E4: Hamiltonian constructions and 2-ECSS                         *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2 | Theorem 2.2 (Fig 2): directed Hamiltonian path, Ω(n²/log⁴ n)";
  let rows =
    pmap
      (fun k ->
        let fam = fam_of "hampath" ~k in
        let verified =
          if k = 2 then quick_verify fam
          else begin
            (* completeness at scale, via the Claim 2.1 witness path *)
            let kk = k * k in
            let x = Bits.of_fun kk (fun b -> b = k + 1) in
            let p = H.witness_path ~k x x ~i:1 ~j:1 in
            match Framework.build fam x x with
            | Framework.Directed dg when Ch_solvers.Hamilton.is_directed_path dg p ->
                "witness ok"
            | _ -> "WITNESS FAIL"
          end
        in
        family_row fam ~verified)
      [ 2; 4; 8; 16; 32; 64 ]
  in
  print_sweep rows
    ~rate_label:"LB·log⁴n/n²"
    ~rate:(fun ~n ~lb ->
      let nf = float_of_int n and l = log2 n in
      lb *. l *. l *. l *. l /. (nf *. nf))

let e3 () =
  header "E3 | Theorems 2.3/2.4: Hamiltonian cycle and the undirected variants";
  Printf.printf "  %-38s %8s %6s  %s\n" "family" "n" "cut" "verified (k=2)";
  List.iter
    (fun fam ->
      Printf.printf "  %-38s %8d %6d  %s\n" fam.Framework.name
        fam.Framework.nvertices (Framework.cut_size fam)
        (quick_verify ~samples:6 fam))
    [
      fam_of "hamcycle" ~k:2;
      fam_of "hamcycle-undirected" ~k:2;
      fam_of "hampath-undirected" ~k:2;
    ];
  Printf.printf
    "  simulation overheads (Lemmas 2.2/2.3): ×%d and ×%d rounds per round.\n"
    Ch_congest.Transform.directed_to_undirected_overhead
    Ch_congest.Transform.hc_to_hp_overhead

let e4 () =
  header "E4 | Theorem 2.5: minimum 2-ECSS (via Claim 2.7)";
  let fam = fam_of "2ecss" ~k:2 in
  Printf.printf "  n = %d, cut = %d, verified: %s\n" fam.Framework.nvertices
    (Framework.cut_size fam)
    (quick_verify ~samples:6 fam);
  Printf.printf
    "  Claim 2.7 (n-edge 2-ECSS ⟺ Hamiltonian cycle) is property-tested in\n\
    \  test_solvers on random graphs.\n"

(* ------------------------------------------------------------------ *)
(* E5: Steiner tree                                                    *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5 | Theorem 2.7: exact Steiner tree, Ω(n²/log² n) (reduction from E1)";
  let rows =
    pmap
      (fun k ->
        let fam = fam_of "steiner" ~k in
        let verified = if k = 2 then quick_verify ~samples:6 fam else "-" in
        family_row fam ~verified)
      [ 2; 4; 8; 16; 32; 64 ]
  in
  print_sweep rows
    ~rate_label:"LB·log²n/n²"
    ~rate:(fun ~n ~lb ->
      let nf = float_of_int n in
      lb *. log2 n *. log2 n /. (nf *. nf))

(* ------------------------------------------------------------------ *)
(* E6: weighted max cut                                                *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6 | Theorem 2.8 (Fig 3): exact weighted max cut, Ω(n²/log² n)";
  let rows =
    pmap
      (fun k ->
        let fam = fam_of "maxcut" ~k in
        let verified = if k = 2 then quick_verify ~samples:6 fam else "-" in
        family_row fam ~verified)
      [ 2; 4; 8; 16; 32; 64; 128 ]
  in
  print_sweep rows
    ~rate_label:"LB·log²n/n²"
    ~rate:(fun ~n ~lb ->
      let nf = float_of_int n in
      lb *. log2 n *. log2 n /. (nf *. nf));
  Printf.printf "  target cut weights M: ";
  List.iter
    (fun k -> Printf.printf "k=%d → %d  " k (MC.target_weight ~k))
    [ 2; 4; 8 ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E7: Theorem 2.9 upper bound                                         *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7 | Theorem 2.9: (1−ε)-approx max cut in Õ(n) CONGEST rounds";
  Printf.printf "  %4s %6s %8s %10s %10s %8s %9s\n" "n" "m" "p" "sampled" "estimate"
    "exact" "rounds";
  List.iter
    (fun n ->
      let g = Ch_graph.Gen.random_connected ~seed:n n 0.4 in
      let exact = fst (Ch_solvers.Maxcut.max_cut g) in
      let r = Ch_congest.Maxcut_sample.run ~seed:5 g in
      Printf.printf "  %4d %6d %8.2f %10d %10d %8d %9d\n" n (Ch_graph.Graph.m g)
        (Ch_congest.Maxcut_sample.sample_probability g)
        r.Ch_congest.Maxcut_sample.sampled_edges r.Ch_congest.Maxcut_sample.estimate
        exact r.Ch_congest.Maxcut_sample.stats.Ch_congest.Network.rounds)
    [ 12; 16; 20; 24; 28 ];
  Printf.printf
    "  rounds grow with n + m·p = Õ(n); the estimate tracks the optimum.\n"

(* ------------------------------------------------------------------ *)
(* E8: bounded-degree lower bounds                                     *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8 | Theorems 3.1-3.3: Ω̃(n) in max-degree-5, log-diameter graphs";
  Printf.printf "  %4s %8s %8s %8s %6s %6s %16s\n" "k" "K" "n(G')" "maxdeg" "diam"
    "cut" "LB = K/(cut·log n)";
  List.iter
    (fun k ->
      let x = Bits.ones (k * k) and y = Bits.zeros (k * k) in
      let inst = Bounded_degree.build ~k x y in
      let g = inst.Bounded_degree.graph in
      let n = Ch_graph.Graph.n g in
      let cut = Bounded_degree.cut_size inst in
      let lb = float_of_int (k * k) /. (float_of_int cut *. log2 n) in
      Printf.printf "  %4d %8d %8d %8d %6d %6d %16.2f\n" k (k * k) n
        (Ch_graph.Graph.max_degree g)
        (Ch_graph.Props.diameter g)
        cut lb)
    [ 2; 4 ];
  Printf.printf
    "  n(G') = Θ(k²) = Θ(K) with an O(log k) cut: LB = Ω̃(n), near the O(n)\n\
    \  learn-everything upper bound for bounded-degree graphs.\n";
  Printf.printf "\n  Theorem 3.4 variant (hub reduction, general graphs):\n";
  Printf.printf "  %4s %8s %6s %18s\n" "k" "n" "cut" "LB = K/(cut·log n)";
  List.iter
    (fun k ->
      let fam = Spanner_lb.family ~k in
      let n = fam.Framework.nvertices in
      let cut = Framework.cut_size fam in
      Printf.printf "  %4d %8d %6d %18.2f\n" k n cut
        (float_of_int fam.Framework.input_bits /. (float_of_int cut *. log2 n)))
    [ 2; 4; 8; 16; 32 ];
  Printf.printf
    "  the hub inflates the cut to Θ(n), so the certified rate is Ω̃(n) —\n\
    \  the [9] degree-preserving gadget would keep it on bounded degrees.\n"

(* ------------------------------------------------------------------ *)
(* E9/E10: approximate MaxIS                                           *)
(* ------------------------------------------------------------------ *)

let e9 () =
  header "E9 | Theorems 4.1/4.3 (Fig 4): (7/8+ε)-approx MaxIS is hard";
  Printf.printf "  %4s %4s %4s %4s %8s %8s %10s %10s %10s\n" "k" "ell" "t" "q" "n(wtd)"
    "cut" "yes" "no" "gap ratio";
  List.iter
    (fun (k, ell) ->
      let p = Maxis_approx_lb.make_params ~ell ~k () in
      let fam = Maxis_approx_lb.weighted_family p in
      let yes = Maxis_approx_lb.yes_weight p and no = Maxis_approx_lb.no_weight p in
      Printf.printf "  %4d %4d %4d %4d %8d %8d %10d %10d %10.4f\n" k
        p.Maxis_approx_lb.ell p.Maxis_approx_lb.t p.Maxis_approx_lb.q
        fam.Framework.nvertices (Framework.cut_size fam) yes no
        (float_of_int no /. float_of_int yes))
    [ (2, 2); (4, 4); (8, 9); (16, 16); (32, 25); (64, 36) ];
  Printf.printf "  gap ratio (7ℓ+4t)/(8ℓ+4t) → 7/8 as ℓ/t grows: a (7/8+ε)-\n";
  Printf.printf "  approximation distinguishes the cases, so it needs Ω̃(K/cut) rounds.\n"

let e10 () =
  header "E10 | Theorem 4.2: (5/6+ε)-approx MaxIS needs Ω̃(n) rounds";
  Printf.printf "  %4s %4s %8s %8s %8s %10s\n" "k" "ell" "K" "n" "cut" "gap ratio";
  List.iter
    (fun (k, ell) ->
      let p = Maxis_approx_lb.make_params ~ell ~k () in
      let fam = Maxis_approx_lb.linear_family p in
      let yes = Maxis_approx_lb.linear_yes_size p in
      let no = yes - p.Maxis_approx_lb.ell in
      Printf.printf "  %4d %4d %8d %8d %8d %10.4f\n" k p.Maxis_approx_lb.ell
        fam.Framework.input_bits fam.Framework.nvertices (Framework.cut_size fam)
        (float_of_int no /. float_of_int yes))
    [ (2, 2); (4, 4); (8, 9); (16, 16); (32, 25) ];
  Printf.printf "  K = k is linear in n/ℓ: the bound is Ω̃(n), gap → 5/6.\n"

(* ------------------------------------------------------------------ *)
(* E11/E12: k-MDS                                                      *)
(* ------------------------------------------------------------------ *)

let e11 () =
  header "E11 | Theorem 4.4 (Fig 5): no O(log n)-approx for weighted 2-MDS";
  Printf.printf "  %4s %4s %3s %8s %6s %12s %14s\n" "ell" "T" "r" "n" "cut" "yes/no gap"
    "verified";
  List.iter
    (fun (ell, t_count) ->
      let p = Kmds_lb.make_params ~seed:1 ~k:2 ~ell ~t_count ~r:2 () in
      let fam = Kmds_lb.family p in
      let verified = if t_count <= 8 then quick_verify ~samples:8 fam else "-" in
      Printf.printf "  %4d %4d %3d %8d %6d %6d vs >%d %17s\n" ell t_count 2
        fam.Framework.nvertices (Framework.cut_size fam) Kmds_lb.yes_weight
        (Kmds_lb.no_weight_exceeds p) verified)
    [ (6, 6); (8, 10); (10, 20); (12, 40); (14, 80) ];
  Printf.printf
    "  T grows exponentially in ℓ (Lemma 4.2): n = Θ(T), cut = Θ(ℓ) = Θ(polylog n),\n\
    \  and the gap factor r/2 = Θ(log ℓ) = Θ(log log n) at these collection sizes.\n"

let e12 () =
  header "E12 | Theorem 4.5: k-MDS for k > 2";
  Printf.printf "  %3s %4s %4s %8s %6s %10s\n" "k" "ell" "T" "n" "cut" "verified";
  List.iter
    (fun k ->
      let p = Kmds_lb.make_params ~seed:1 ~k ~ell:6 ~t_count:6 ~r:2 () in
      let fam = Kmds_lb.family p in
      Printf.printf "  %3d %4d %4d %8d %6d %10s\n" k 6 6 fam.Framework.nvertices
        (Framework.cut_size fam)
        (quick_verify ~samples:6 fam))
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E13: Steiner tree variants                                          *)
(* ------------------------------------------------------------------ *)

let e13 () =
  header "E13 | Theorems 4.6/4.7 (Fig 6): node-weighted / directed Steiner tree";
  let p = Steiner_approx_lb.make_params ~seed:1 ~ell:6 ~t_count:5 ~r:2 () in
  List.iter
    (fun fam ->
      Printf.printf "  %-44s n=%4d cut=%3d verified %s\n" fam.Framework.name
        fam.Framework.nvertices (Framework.cut_size fam)
        (quick_verify ~samples:6 fam))
    [ Steiner_approx_lb.node_weighted_family p; Steiner_approx_lb.directed_family p ];
  let gap_checks f =
    List.for_all Fun.id
      (List.init 10 (fun i ->
           f p (Bits.random ~seed:(900 + i) 5) (Bits.random ~seed:(990 + i) 5)))
  in
  Printf.printf "  gap (cost 2 vs > r) holds on random inputs: node-weighted %b, directed %b\n"
    (gap_checks Steiner_approx_lb.node_weighted_gap_holds)
    (gap_checks Steiner_approx_lb.directed_gap_holds)

(* ------------------------------------------------------------------ *)
(* E14: restricted MDS + local-aggregate simulation                    *)
(* ------------------------------------------------------------------ *)

let e14 () =
  header "E14 | Theorem 4.8 (Fig 7): restricted (local-aggregate) MDS hardness";
  let p = Mds_restricted_lb.make_params ~seed:1 ~ell:6 ~t_count:6 ~r:2 () in
  let fam = Mds_restricted_lb.family p in
  Printf.printf "  family: n=%d, verified %s\n" fam.Framework.nvertices
    (quick_verify ~samples:10 fam);
  let x = Bits.random ~seed:3 6 and y = Bits.random ~seed:4 6 in
  let g = Framework.graph_of (Framework.build fam x y) in
  let owner v =
    match Mds_restricted_lb.owner p v with
    | `Alice -> Ch_limits.Aggregate.Alice
    | `Bob -> Ch_limits.Aggregate.Bob
    | `Shared -> Ch_limits.Aggregate.Shared
  in
  Printf.printf "  local-aggregate simulation bits (shared vertices = ℓ = 6):\n";
  Printf.printf "  %8s %12s %18s\n" "rounds" "bits" "bound 2ℓ·t·⌈log⌉";
  List.iter
    (fun rounds ->
      let sim =
        Ch_limits.Aggregate.simulate_two_party g ~owner
          (Ch_limits.Aggregate.flood_max ~rounds)
      in
      Printf.printf "  %8d %12d %18d\n" rounds sim.Ch_limits.Aggregate.bits
        (2 * 6 * rounds * 10))
    [ 1; 2; 4; 8 ];
  Printf.printf
    "  the cost is Θ(ℓ·log n) per round — exactly the Theorem 4.8 simulation charge.\n"

(* ------------------------------------------------------------------ *)
(* E15: limitation protocols                                           *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header "E15 | Claims 5.1-5.9: cheap two-party approximations (framework limits)";
  let open Ch_limits in
  let mk seed =
    let g =
      Ch_graph.Gen.random_weights ~seed (Ch_graph.Gen.random_connected ~seed 14 0.3)
    in
    for v = 0 to 13 do
      Ch_graph.Graph.set_vweight g v (1 + (v mod 5))
    done;
    Split.make g ~side:(Array.init 14 (fun v -> v < 7))
  in
  let split = mk 3 in
  let g = split.Split.graph in
  let cut = Split.cut_size split in
  Printf.printf "  instance: n=14 m=%d cut=%d\n" (Ch_graph.Graph.m g) cut;
  Printf.printf "  %-28s %10s %8s\n" "protocol" "value" "bits";
  let row name value bits = Printf.printf "  %-28s %10s %8d\n" name value bits in
  let r = Approx_protocols.mvc_bounded_degree ~eps:0.5 split in
  row "MVC (1+eps), Claim 5.1" (string_of_int (List.length r.Approx_protocols.value)) r.Approx_protocols.bits;
  let r = Approx_protocols.mds_bounded_degree ~eps:0.9 split in
  row "MDS (1+eps), Claim 5.2" (string_of_int (List.length r.Approx_protocols.value)) r.Approx_protocols.bits;
  let r = Approx_protocols.maxis_bounded_degree ~eps:0.9 split in
  row "MaxIS (1-eps), Claim 5.3" (string_of_int (List.length r.Approx_protocols.value)) r.Approx_protocols.bits;
  let r = Approx_protocols.maxcut_unweighted ~eps:0.8 split in
  row "max-cut (1-eps), Claim 5.4" (string_of_int (fst r.Approx_protocols.value)) r.Approx_protocols.bits;
  let r = Approx_protocols.maxcut_weighted_two_thirds split in
  row "max-cut 2/3, Claim 5.5" (string_of_int (fst r.Approx_protocols.value)) r.Approx_protocols.bits;
  let r = Approx_protocols.mvc_three_halves split in
  row "MVC 3/2, Claim 5.6" (string_of_int r.Approx_protocols.value) r.Approx_protocols.bits;
  let r = Approx_protocols.mds_two_approx split in
  row "MDS 2x, Claim 5.8" (string_of_int (List.length r.Approx_protocols.value)) r.Approx_protocols.bits;
  let r = Approx_protocols.maxis_half split in
  row "MaxIS 1/2, Claim 5.9" (string_of_int r.Approx_protocols.value) r.Approx_protocols.bits;
  Printf.printf
    "  each is O(|E_cut|·log n / ε) bits, so by Corollary 5.1 no family of lower\n\
    \  bound graphs can push past these ratios with Theorem 1.1.\n"

(* ------------------------------------------------------------------ *)
(* E16: nondeterministic flow protocols                                *)
(* ------------------------------------------------------------------ *)

let e16 () =
  header "E16 | Claim 5.11: nondeterministic max-flow certificates";
  let open Ch_limits in
  Printf.printf "  %6s %8s %8s %12s %12s\n" "seed" "flow" "cut" "bits(≥k)" "bits(<k)";
  List.iter
    (fun seed ->
      let g =
        Ch_graph.Gen.random_weights ~seed (Ch_graph.Gen.random_connected ~seed 12 0.3)
      in
      let split = Split.make g ~side:(Array.init 12 (fun v -> v < 6)) in
      let network = Ch_solvers.Flow.of_graph g in
      let value = Ch_solvers.Flow.max_flow network ~s:0 ~t:11 in
      let ge = Nondet.flow_ge split ~s:0 ~t:11 ~k:value in
      let lt = Nondet.flow_lt split ~s:0 ~t:11 ~k:(value + 1) in
      assert (ge.Nondet.accepted && lt.Nondet.accepted);
      Printf.printf "  %6d %8d %8d %12d %12d\n" seed value (Split.cut_size split)
        ge.Nondet.bits lt.Nondet.bits)
    [ 1; 2; 3; 4 ];
  Printf.printf
    "  CC_N(flow ≥ k) and CC_N(flow < k) are both O(|E_cut|·log W): by Claim 5.10\n\
    \  the fixed-cut framework cannot give super-constant max-flow bounds.\n"

(* ------------------------------------------------------------------ *)
(* E17: proof labeling schemes                                         *)
(* ------------------------------------------------------------------ *)

let e17 () =
  header "E17 | Theorem 5.1 / Lemma 5.1: PLS label widths";
  let open Ch_pls in
  let g = Ch_graph.Gen.random_connected ~seed:8 24 0.2 in
  let parent = Ch_graph.Props.bfs_tree g 0 in
  let tree =
    List.filter_map
      (fun v ->
        if parent.(v) >= 0 then Some (min v parent.(v), max v parent.(v)) else None)
      (List.init 24 Fun.id)
  in
  let instances =
    [
      ("H = spanning tree", Verif.make ~s:0 ~t:23 ~e:(List.hd tree) g ~h:tree);
      ( "H = all edges",
        Verif.make ~s:0 ~t:23 ~e:(List.hd tree) g
          ~h:(List.map (fun (u, v, _) -> (u, v)) (Ch_graph.Graph.edges g)) );
      ("H = empty", Verif.make ~s:0 ~t:23 ~e:(List.hd tree) g ~h:[]);
    ]
  in
  Printf.printf "  n = 24, ⌈log₂ n⌉ = 5\n";
  Printf.printf "  %-24s %-20s %12s\n" "scheme" "true on" "label bits";
  List.iter
    (fun (name, scheme) ->
      let hits =
        List.filter_map
          (fun (iname, inst) ->
            if scheme.Pls.predicate inst then
              match scheme.Pls.prover inst with
              | Some labeling -> Some (iname, Pls.max_label_bits labeling)
              | None -> None
            else None)
          instances
      in
      match hits with
      | [] -> ()
      | (iname, bits) :: _ -> Printf.printf "  %-24s %-20s %12d\n" name iname bits)
    Schemes.all_named;
  Printf.printf
    "  all O(log n): Theorem 5.1 turns each into an O(|E_cut|·log n)-bit\n\
    \  nondeterministic protocol, capping Theorem 1.1 for these predicates.\n"

(* ------------------------------------------------------------------ *)
(* E18: Theorem 1.1 end to end                                         *)
(* ------------------------------------------------------------------ *)

let e18 () =
  let open Ch_reduction in
  header "E18 | Theorem 1.1 end-to-end: Alice/Bob solve DISJ by simulating CONGEST";
  Printf.printf "  %4s %6s %6s %9s %12s %14s %12s\n" "k" "n" "cut" "rounds"
    "cut bits" "decisions ok" "oracle ok";
  List.iter
    (fun k ->
      match Bound.sweep_registry (spec "mds") ~k ~samples:6 with
      | None -> invalid_arg "bench: mds has no reduction"
      | Some (rows, rep, _) ->
          let mean f =
            List.fold_left (fun acc r -> acc + f r.Bound.bt) 0 rows
            / List.length rows
          in
          Printf.printf "  %4d %6d %6d %9d %12d %14b %12b\n" k rep.Bound.rep_n
            rep.Bound.rep_cut
            (mean (fun t -> t.Simulate.rounds))
            (mean (fun t -> t.Simulate.cut_bits))
            rep.Bound.rep_all_correct rep.Bound.rep_all_match)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17);
    ("e18", e18);
  ]

(* ------------------------------------------------------------------ *)
(* --json: perf trajectory tracking                                    *)
(* ------------------------------------------------------------------ *)

(* Every bench entry below resets the obs counters before its runs and
   takes the merged report after, so the JSON "obs" section carries one
   report per entry. *)

(* Verification throughput: the same workload on the CH_JOBS pool and on
   a 1-worker pool.  Results must be bitwise identical (the determinism
   contract); the ratio of wall times is the parallel speedup.  The
   exhaustive pair space is capped at K ≤ 10 ([Pairs.total]), so the k=4
   MDS family (K = 16) is measured on a sampled mode.

   Every sweep runs through [Framework.verdicts], keeping the per-pair
   trace: the failure count is [Framework.failures], and each
   incremental "<id>-inc" entry is differenced pair by pair against its
   from-scratch counterpart's trace.  The workload is the registry's
   incremental slice — every family with a cache query is benched
   scratch-vs-incremental with no per-family wiring here.  [--smoke] drops the slow from-scratch sweep (so that -inc
   entry carries no differential) for CI-sized runs. *)
type ventry = {
  vname : string;
  vpairs : int;
  vwall : float;
  vwall1 : float;
  vhits : int;
  vmisses : int;
  vvs_scratch : float option;  (* scratch wall / incremental wall *)
  vdiff_ok : bool option;  (* per-pair trace equality vs scratch *)
  vobs : Obs.report;  (* telemetry for this entry's runs *)
  vnodes : int;  (* Σ solver.*.nodes over this entry's runs *)
  vpruned : int;  (* Σ solver.*.pruned over this entry's runs *)
}

(* The search-effort totals of a bench entry, folded out of its obs
   report: every [solver.<name>.nodes] / [.pruned] counter summed.  They
   summarise the entry for a reader; the bench gate checks each counter
   in the "obs" section itself. *)
let solver_totals rep =
  let sum suffix =
    List.fold_left
      (fun acc (name, v) ->
        if
          String.length name > 7
          && String.sub name 0 7 = "solver."
          && Filename.check_suffix name suffix
        then acc + v
        else acc)
      0 rep.Obs.r_counters
  in
  (sum ".nodes", sum ".pruned")

let verify_benches ~smoke () =
  let pool = Pool.default () and pool1 = Pool.create ~jobs:1 () in
  let check_failures ~name fam v =
    let n = Framework.failures fam Pairs.Exhaustive v in
    if n > 0 then
      failwith (Printf.sprintf "verify bench %s: %d failures" name n)
  in
  let entry ~name ~pairs ~wall ~wall1 ?(hits = 0) ?(misses = 0) ?vs_scratch
      ?diff_ok () =
    let vobs = Obs.report () in
    let vnodes, vpruned = solver_totals vobs in
    {
      vname = name;
      vpairs = pairs;
      vwall = wall;
      vwall1 = wall1;
      vhits = hits;
      vmisses = misses;
      vvs_scratch = vs_scratch;
      vdiff_ok = diff_ok;
      vobs;
      vnodes;
      vpruned;
    }
  in
  (* from-scratch traces, by name, for the -inc differentials *)
  let traces : (string, bool array * float) Hashtbl.t = Hashtbl.create 8 in
  let run ~pool engine =
    Framework.verdicts ~pool engine Pairs.Exhaustive
  in
  let bench_scratch ~name fam =
    Obs.reset ();
    let (v, _), wall = timed (fun () -> run ~pool (Framework.Scratch fam)) in
    let (v1, _), wall1 =
      timed (fun () -> run ~pool:pool1 (Framework.Scratch fam))
    in
    if v <> v1 then
      failwith (Printf.sprintf "verify bench %s: CH_JOBS result mismatch" name);
    check_failures ~name fam v;
    Hashtbl.replace traces name (v, wall);
    entry ~name ~pairs:(Array.length v) ~wall ~wall1 ()
  in
  let bench_inc ~name ~scratch_name inc =
    Obs.reset ();
    let (v, stats), wall =
      timed (fun () -> run ~pool (Framework.Incremental inc))
    in
    let (v1, _), wall1 =
      timed (fun () -> run ~pool:pool1 (Framework.Incremental inc))
    in
    if v <> v1 then
      failwith (Printf.sprintf "verify bench %s: CH_JOBS result mismatch" name);
    check_failures ~name inc.Framework.scratch v;
    let vs_scratch, diff_ok =
      match Hashtbl.find_opt traces scratch_name with
      | Some (sv, swall) -> (Some (swall /. wall), Some (sv = v))
      | None -> (None, None)
    in
    (match diff_ok with
    | Some false ->
        failwith (Printf.sprintf "verify bench %s: differential mismatch" name)
    | _ -> ());
    entry ~name ~pairs:(Array.length v) ~wall ~wall1
      ~hits:stats.Framework.cache_hits ~misses:stats.Framework.cache_misses
      ?vs_scratch ?diff_ok ()
  in
  let bench_counts ~name f =
    Obs.reset ();
    let r, wall = timed (fun () -> f pool) in
    let r1, wall1 = timed (fun () -> f pool1) in
    if r <> r1 then
      failwith (Printf.sprintf "verify bench %s: CH_JOBS result mismatch" name);
    let failures, pairs = r in
    if failures > 0 then
      failwith (Printf.sprintf "verify bench %s: %d failures" name failures);
    entry ~name ~pairs ~wall ~wall1 ()
  in
  (* the from-scratch side of this exhaustive sweep is too slow for a CI
     smoke run; its -inc entry still runs, without a differential *)
  let slow_scratch = [ "maxcut" ] in
  let family_entries =
    (* concat_map evaluates left to right, and within a family the
       scratch binding precedes the -inc one — each -inc entry needs its
       scratch trace recorded first *)
    List.concat_map
      (fun s ->
        let id = s.Registry.id and k = s.Registry.default_k in
        let scratch_name = Printf.sprintf "%s-k%d-exhaustive" id k in
        let scratch =
          if smoke && List.mem id slow_scratch then []
          else [ bench_scratch ~name:scratch_name (s.Registry.scratch k) ]
        in
        let inc =
          match s.Registry.incremental with
          | None -> []
          | Some inc ->
              [ bench_inc ~name:(scratch_name ^ "-inc") ~scratch_name (inc k) ]
        in
        scratch @ inc)
      (Registry.filter ~incremental:true (reg ()))
  in
  let k4 =
    if smoke then []
    else begin
      let k4_block =
        bench_counts ~name:"mds-k4-exhaustive-block" (fun p ->
            (* a 128 × 16 block of the K = 16 pair space: ~2k exact
               solves on the k=4 gadget — big enough to time, bounded
               enough for a smoke run (the full 2^16 × 2^16 space is out
               of reach) *)
            let fam = fam_of "mds" ~k:4 in
            let xs = Array.of_list (Bits.all 16) in
            let counts =
              Pool.parallel_chunks p ~lo:0 ~hi:(128 * 16) (fun lo hi ->
                  let bad = ref 0 in
                  for i = lo to hi - 1 do
                    let x = xs.(257 * (i / 16)) and y = xs.(i mod 16) in
                    if Framework.verdict fam x y <> fam.Framework.f x y then
                      incr bad
                  done;
                  !bad)
            in
            (List.fold_left ( + ) 0 counts, 128 * 16))
      in
      let k4_random =
        bench_counts ~name:"mds-k4-random-64" (fun p ->
            let fam = fam_of "mds" ~k:4 in
            verify_counts ~pool:p fam (Framework.Scratch fam)
              (Pairs.Sampled { seed = 77; samples = 64 }))
      in
      [ k4_block; k4_random ]
    end
  in
  family_entries @ k4

(* Theorem 1.1 reduction sweeps: the lockstep two-party simulation on
   every swept pair, differenced bit-for-bit against the
   [Network.run_split] oracle, with the derived empirical
   Ω(CC(f)/(|E_cut|·log n)) figure.  The workload is the registry's
   reduction slice ([Bound.sweep_registry] at each family's default
   scale), one entry per family whose objective the gather carries.
   [exhaustive_reductions] sweep the full (connected) 2^K × 2^K pair
   space; every other family sweeps the corners plus a sample
   ([--smoke] shrinks only that sample): the exhaustive sweep stops at
   K ≤ 5, max-cut's exact solver takes ~30 ms a pair and each
   Hamiltonian family's search seconds over all pairs.  Disconnected
   pairs are outside the CONGEST model and skipped, with the count
   reported. *)
type rentry = {
  rname : string;
  rskipped : int;
  rwall : float;
  rrep : Ch_reduction.Bound.report;
  robs : Obs.report;  (* telemetry for this entry's sweep *)
}

let exhaustive_reductions = [ "mds"; "maxis"; "bitgadget" ]

let reduction_benches ~smoke () =
  let open Ch_reduction in
  List.map
    (fun s ->
      let id = s.Registry.id and k = s.Registry.default_k in
      let name = Printf.sprintf "%s-k%d-reduction" id k in
      let exhaustive = List.mem id exhaustive_reductions in
      let samples = if smoke then 4 else 20 in
      Obs.reset ();
      let r, wall =
        timed (fun () ->
            Bound.sweep_registry ~trace:Trace.obs_sink ~seed:41 ~exhaustive
              ~samples s ~k)
      in
      match r with
      | None -> failwith (Printf.sprintf "reduction bench %s: no reduction" name)
      | Some (_, rep, skipped) ->
          if
            not
              (rep.Bound.rep_all_match && rep.Bound.rep_all_correct
             && rep.Bound.rep_all_within_budget)
          then failwith (Printf.sprintf "reduction bench %s: invariant failed" name);
          {
            rname = name;
            rskipped = skipped;
            rwall = wall;
            rrep = rep;
            robs = Obs.report ();
          })
    (Registry.filter ~reduction:true (reg ()))

(* Sharded sweep engine (lib/sweep): a fresh store-backed sweep, a
   crash-and-resume cycle in the same store, and — full runs only — the
   large-k sampled workload.  Every merged verdict stream is differenced
   bit-for-bit against the single-process scratch oracle (one
   [Framework.verdicts] run over the mode) before the entry is recorded,
   the same discipline as the -inc entries above.
   The shard counts are pinned (no CH_JOBS / machine dependence) and
   [--smoke] keeps only the two tiny k=2 exhaustive entries, so the CI
   run stays timeout-bounded. *)
type sentry = {
  sname : string;
  spairs : int;
  snshards : int;
  swall : float;
  scompleted : int;
  sresumed : int;
  srecomputed : int;
  scorrupt : int;
  sdiff_ok : bool;
  sobs : Obs.report;
}

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let sweep_benches ~smoke () =
  let open Ch_sweep in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bench_sweep_%d" (Unix.getpid ()))
  in
  (* the oracle runs before [Obs.reset], so each entry's obs report (and
     its sweep.shards.* counters) covers the sweep alone *)
  let entry ~name ~fam ~mode ~store run =
    let oracle, _ = Framework.verdicts (Framework.Scratch fam) mode in
    Obs.reset ();
    let o, wall = timed (fun () -> run ~store_dir:(Filename.concat root store)) in
    if o.Sweep.verdicts <> oracle then
      failwith (Printf.sprintf "sweep bench %s: differential mismatch" name);
    if o.Sweep.failures > 0 then
      failwith (Printf.sprintf "sweep bench %s: %d failures" name o.Sweep.failures);
    {
      sname = name;
      spairs = Array.length o.Sweep.verdicts;
      snshards = o.Sweep.shards_total;
      swall = wall;
      scompleted = o.Sweep.shards_completed;
      sresumed = o.Sweep.shards_resumed;
      srecomputed = o.Sweep.shards_recomputed;
      scorrupt = o.Sweep.artifacts_corrupt;
      sdiff_ok = true;
      sobs = Obs.report ();
    }
  in
  let fam2 = fam_of "mds" ~k:2 in
  let fresh =
    entry ~name:"mds-k2-sweep-x4" ~fam:fam2 ~mode:Pairs.Exhaustive
      ~store:"fresh" (fun ~store_dir ->
        Sweep.run ~store_dir fam2 ~mode:Pairs.Exhaustive ~shards:4)
  in
  let resume =
    (* interrupt a sweep after two shards, then time the resumed run: it
       must load the persisted shards (zero recomputation) and still
       merge to the oracle stream *)
    (try
       ignore
         (Sweep.run
            ~store_dir:(Filename.concat root "resume")
            ~fault_after:2 fam2 ~mode:Pairs.Exhaustive ~shards:4)
     with Sweep.Interrupted _ -> ());
    let e =
      entry ~name:"mds-k2-sweep-resume4" ~fam:fam2 ~mode:Pairs.Exhaustive
        ~store:"resume" (fun ~store_dir ->
          Sweep.run ~store_dir fam2 ~mode:Pairs.Exhaustive ~shards:4)
    in
    if e.sresumed <> 2 || e.srecomputed > 0 then
      failwith "sweep bench resume: expected 2 resumed shards, 0 recomputed";
    e
  in
  let big =
    if smoke then []
    else begin
      (* the first large-k sampled workload: 49 152 pairs of the k=4 MDS
         gadget (12× the largest exhaustive space benched above), cut
         into 64 shards *)
      let fam4 = fam_of "mds" ~k:4 in
      let mode = Pairs.Sampled { seed = 11; samples = 49148 } in
      [
        entry ~name:"mds-k4-sweep-sample49152" ~fam:fam4 ~mode ~store:"big"
          (fun ~store_dir -> Sweep.run ~store_dir fam4 ~mode ~shards:64);
      ]
    end
  in
  let entries = (fresh :: resume :: big) in
  if Sys.file_exists root then rm_rf root;
  entries

(* Serve daemon (lib/serve): cold vs warm service time for one verify
   plan over a real localhost Unix socket — daemon thread, framing,
   scheduler admission and the warm-cache registry all on the measured
   path.  The daemon runs in-process on its own threads, beside the
   bench's domain pool; the socket hop is real, so cold/warm is exactly
   what a CLI client sees.  [Cache.clear] before each entry makes the
   first request genuinely cold; the warm figure is the best of five
   repeats, and the oracle digest is computed after the roundtrips so
   its work never pre-warms the server. *)
type sventry = {
  svname : string;
  svpairs : int;
  svcold_s : float;
  svwarm_s : float;  (** best of the warm repeats *)
  svwarm_hit : bool;  (** every repeat answered [warm: true] *)
  svdigest_ok : bool;  (** every digest equals the in-process oracle *)
  svobs : Obs.report;
}

let serve_benches ~smoke () =
  let open Ch_serve in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bench_serve_%d.sock" (Unix.getpid ()))
  in
  let server =
    Server.start
      {
        Server.cfg_addr = Server.Unix_socket sock;
        cfg_workers = 4;
        cfg_queue_depth = 64;
        cfg_store_dir = None;
        cfg_obs_out = None;
        (* the sampler stays live during the serve benches — its cost is
           part of the daemon's steady state *)
        cfg_sample_period_s = 0.5;
      }
  in
  let entry ~name ~family ~k ~vmode =
    Ch_solvers.Cache.clear ();
    Obs.reset ();
    let c = Client.connect ~retries:20 (Server.Unix_socket sock) in
    let req id =
      {
        Protocol.rq_id = id;
        rq_op = Protocol.Verify { family; k; vmode; engine = Protocol.Auto };
        rq_deadline_ms = None;
        rq_trace = None;
      }
    in
    let get id =
      match Client.roundtrip c [ req id ] with
      | [ r ] -> r
      | _ -> failwith (Printf.sprintf "serve bench %s: bad batch shape" name)
    in
    let body r =
      match r.Protocol.rs_outcome with
      | Protocol.Payload b -> b
      | Protocol.Error (code, msg) ->
          failwith
            (Printf.sprintf "serve bench %s: %s (%s)" name
               (Protocol.error_code_to_string code)
               msg)
    in
    let r0, cold = timed (fun () -> get 0) in
    let repeats = List.init 5 (fun i -> timed (fun () -> get (i + 1))) in
    Client.close c;
    let warm =
      List.fold_left (fun acc (_, w) -> Float.min acc w) Float.infinity repeats
    in
    let warm_hit = List.for_all (fun (r, _) -> r.Protocol.rs_warm) repeats in
    let digest r =
      match Jsonx.mem "digest" (body r) with
      | Some (Jsonx.Str d) -> d
      | _ -> failwith (Printf.sprintf "serve bench %s: no digest" name)
    in
    let pairs =
      match Jsonx.mem "pairs" (body r0) with Some (Jsonx.Int n) -> n | _ -> 0
    in
    let oracle_digest =
      Ch_sweep.Sweep.digest
        (fst (Framework.verdicts (Framework.Scratch (fam_of ~k family)) vmode))
    in
    let digest_ok =
      List.for_all (fun (r, _) -> digest r = oracle_digest) ((r0, cold) :: repeats)
    in
    if not digest_ok then
      failwith (Printf.sprintf "serve bench %s: digest mismatch vs oracle" name);
    {
      svname = name;
      svpairs = pairs;
      svcold_s = cold;
      svwarm_s = warm;
      svwarm_hit = warm_hit;
      svdigest_ok = digest_ok;
      svobs = Obs.report ();
    }
  in
  let entries =
    (* the acceptance workload first: repeated node-weighted Steiner at
       k=2 must serve warm >= 10x faster than cold *)
    entry ~name:"serve-nwsteiner-k2-x" ~family:"steiner-node-weighted" ~k:2
      ~vmode:Protocol.Exhaustive
    :: entry ~name:"serve-mds-k2-x" ~family:"mds" ~k:2
         ~vmode:Protocol.Exhaustive
    ::
    (if smoke then []
     else
       [
         entry ~name:"serve-mds-k4-s2048" ~family:"mds" ~k:4
           ~vmode:(Protocol.Sampled { seed = 11; samples = 2044 });
       ])
  in
  Server.stop server;
  entries

let write_json ~experiment_times ~verify ~reduction ~sweep ~serve =
  let open Jsonx in
  let ts = int_of_float (Unix.time ()) in
  let file = Printf.sprintf "BENCH_%d.json" ts in
  let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
  let rate pairs wall = Float (float_of_int pairs /. wall) in
  let experiment (name, wall) =
    Obj [ ("name", Str name); ("wall_s", Float wall) ]
  in
  let verify_entry e =
    Obj
      ([
         ("family", Str e.vname); ("pairs", Int e.vpairs);
         ("wall_s", Float e.vwall); ("pairs_per_s", rate e.vpairs e.vwall);
         ("wall_s_jobs1", Float e.vwall1);
         ("speedup_vs_jobs1", Float (e.vwall1 /. e.vwall));
         ("cache_hits", Int e.vhits); ("cache_misses", Int e.vmisses);
       ]
      @ opt "speedup_vs_scratch" (fun s -> Float s) e.vvs_scratch
      @ opt "differential_ok" (fun b -> Bool b) e.vdiff_ok
      @ [ ("solver_nodes", Int e.vnodes); ("solver_pruned", Int e.vpruned) ])
  in
  let reduction_entry r =
    Ch_reduction.Bound.report_json
      ~id:
        [
          ("family", Str r.rname); ("pairs_skipped", Int r.rskipped);
          ("wall_s", Float r.rwall);
          ("pairs_per_s", rate r.rrep.Ch_reduction.Bound.rep_pairs r.rwall);
        ]
      r.rrep
  in
  let sweep_entry e =
    Obj
      [
        ("family", Str e.sname); ("pairs", Int e.spairs);
        ("shards", Int e.snshards); ("wall_s", Float e.swall);
        ("pairs_per_s", rate e.spairs e.swall);
        ("shards_completed", Int e.scompleted);
        ("shards_resumed", Int e.sresumed);
        ("shards_recomputed", Int e.srecomputed);
        ("artifacts_corrupt", Int e.scorrupt);
        ("differential_ok", Bool e.sdiff_ok);
      ]
  in
  let serve_entry e =
    Obj
      [
        ("name", Str e.svname); ("pairs", Int e.svpairs);
        ("cold_s", Float e.svcold_s); ("warm_s", Float e.svwarm_s);
        ("warm_speedup", Float (e.svcold_s /. e.svwarm_s));
        ("warm_hit", Bool e.svwarm_hit); ("digest_ok", Bool e.svdigest_ok);
      ]
  in
  (* one telemetry report per bench entry: its counters are what
     `hardness bench-diff` compares *)
  let obs name rep =
    Obj [ ("family", Str name); ("report", Obs.report_json rep) ]
  in
  let obs_entries =
    List.map (fun e -> obs e.vname e.vobs) verify
    @ List.map (fun r -> obs r.rname r.robs) reduction
    @ List.map (fun e -> obs e.sname e.sobs) sweep
    @ List.map (fun e -> obs e.svname e.svobs) serve
  in
  let doc =
    Obj
      [
        ("timestamp", Int ts); ("jobs", Int (Pool.jobs (Pool.default ())));
        ("experiments", Arr (List.map experiment experiment_times));
        ("verify", Arr (List.map verify_entry verify));
        ("reduction", Arr (List.map reduction_entry reduction));
        ("sweep", Arr (List.map sweep_entry sweep));
        ("serve", Arr (List.map serve_entry serve));
        ("obs", Arr obs_entries);
      ]
  in
  let oc = open_out file in
  output_string oc (to_document doc);
  close_out oc;
  Printf.printf "\nwrote %s\n" file

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let smoke = List.mem "--smoke" args in
  let args = List.filter (fun a -> a <> "--json" && a <> "--smoke") args in
  (* every id is checked before anything runs *)
  (match List.filter (fun id -> not (List.mem_assoc id all_experiments)) args with
  | [] -> ()
  | id :: _ ->
      Printf.eprintf "bench: unknown experiment %S (valid: %s)\n" id
        (String.concat " " (List.map fst all_experiments));
      exit 1);
  if json then Obs.set_enabled true;
  let selected =
    if args = [] then all_experiments
    else List.map (fun id -> (id, List.assoc id all_experiments)) args
  in
  if args = [] then
    Printf.printf
      "Hardness of Distributed Optimization (PODC 2019) — experiment report\n";
  let experiment_times =
    List.map
      (fun (name, f) ->
        let (), wall = timed f in
        (name, wall))
      selected
  in
  if json then begin
    header "Verification throughput (CH_JOBS pool vs 1 worker)";
    let verify = verify_benches ~smoke () in
    List.iter
      (fun e ->
        Printf.printf
          "  %-28s %8d pairs  %8.3fs  %10.1f pairs/s  ×%.2f vs jobs=1%s%s\n"
          e.vname e.vpairs e.vwall
          (float_of_int e.vpairs /. e.vwall)
          (e.vwall1 /. e.vwall)
          (match e.vvs_scratch with
          | Some s -> Printf.sprintf "  ×%.2f vs scratch" s
          | None -> "")
          (match e.vdiff_ok with
          | Some true -> "  differential ok"
          | Some false -> "  DIFFERENTIAL MISMATCH"
          | None -> ""))
      verify;
    header "Theorem 1.1 reduction (lockstep transcript vs partitioned oracle)";
    let reduction = reduction_benches ~smoke () in
    List.iter
      (fun r ->
        let rep = r.rrep in
        let open Ch_reduction.Bound in
        Printf.printf
          "  %-32s %5d pairs (%d skipped)  t=%d  %7.3fs  %8.1f pairs/s  \
           %6.1f bits/round  Ω(%.2f) rounds  %s\n"
          r.rname rep.rep_pairs r.rskipped rep.rep_parties r.rwall
          (float_of_int rep.rep_pairs /. r.rwall)
          rep.rep_bits_per_round rep.rep_lb_rounds
          (if rep.rep_all_match then "differential ok"
           else "DIFFERENTIAL MISMATCH"))
      reduction;
    header "Sharded sweep engine (store-backed, resumable)";
    let sweep = sweep_benches ~smoke () in
    List.iter
      (fun e ->
        Printf.printf
          "  %-28s %8d pairs  %3d shards  %8.3fs  %10.1f pairs/s  \
           completed=%d resumed=%d recomputed=%d corrupt=%d  %s\n"
          e.sname e.spairs e.snshards e.swall
          (float_of_int e.spairs /. e.swall)
          e.scompleted e.sresumed e.srecomputed e.scorrupt
          (if e.sdiff_ok then "differential ok" else "DIFFERENTIAL MISMATCH"))
      sweep;
    header "Serve daemon (cold vs warm over a localhost socket)";
    let serve = serve_benches ~smoke () in
    List.iter
      (fun e ->
        Printf.printf
          "  %-28s %8d pairs  cold %8.4fs  warm %8.6fs  ×%.1f  %s%s\n"
          e.svname e.svpairs e.svcold_s e.svwarm_s
          (e.svcold_s /. e.svwarm_s)
          (if e.svwarm_hit then "warm hits" else "NO WARM HIT")
          (if e.svdigest_ok then "  digest ok" else "  DIGEST MISMATCH"))
      serve;
    write_json ~experiment_times ~verify ~reduction ~sweep ~serve
  end
