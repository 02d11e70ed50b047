(* Quickstart: build the paper's Figure 1 lower-bound family for minimum
   dominating set, check its defining property on a few inputs, and print
   the round lower bound it certifies.

   Run with: dune exec examples/quickstart.exe *)

open Ch_cc
open Ch_core
open Ch_lbgraphs

let () =
  let k = 4 in
  let fam = Mds_lb.family ~k in
  Printf.printf "Family %S with k = %d:\n" fam.Framework.name k;
  Printf.printf "  vertices      : %d\n" fam.Framework.nvertices;
  Printf.printf "  input bits K  : %d (per player)\n" fam.Framework.input_bits;
  Printf.printf "  |E_cut|       : %d\n" (Framework.cut_size fam);
  Printf.printf "  MDS target    : %d  (= 4 log k + 2)\n\n" (Mds_lb.target_size ~k);

  (* the defining iff: the graph has a dominating set of the target size
     exactly when the input strings intersect *)
  let show x y =
    let intersects = Commfn.intersecting x y in
    let holds = Framework.verdict fam x y in
    Printf.printf "  x = %s  y = %s   intersecting = %-5b  P(G_xy) = %-5b  %s\n"
      (Bits.to_string x) (Bits.to_string y) intersects holds
      (if intersects = holds then "ok" else "MISMATCH")
  in
  Printf.printf "Checking the Lemma 2.1 property on sample inputs:\n";
  show (Bits.zeros 16) (Bits.zeros 16);
  show (Bits.ones 16) (Bits.ones 16);
  show (Bits.ones 16) (Bits.zeros 16);
  for i = 0 to 3 do
    show (Bits.random ~seed:i 16) (Bits.random ~seed:(100 + i) 16)
  done;

  (* randomized verification plus the Definition 1.1 side conditions:
     the engine answers P(G_xy) on the four corner pairs and 30 seeded
     draws, and the fold against f counts the pairs where they differ;
     the side conditions are checked exactly, on the declared encoding *)
  let mode = Pairs.Sampled { seed = 42; samples = 30 } in
  let verdicts, _ = Framework.verdicts (Framework.Scratch fam) mode in
  Printf.printf "\nRandomized verification: %d failures out of %d pairs\n"
    (Framework.failures fam mode verdicts)
    (Array.length verdicts);
  Printf.printf "Definition 1.1 side conditions hold: %b\n" (Framework.sided fam);

  (* what Theorem 1.1 gives: Ω(K / (|E_cut| log n)) rounds *)
  Printf.printf "\nTheorem 1.1 lower bounds certified by this family:\n";
  Printf.printf "  %6s %8s %6s %6s %14s\n" "k" "n" "K" "cut" "LB (rounds)";
  List.iter
    (fun k ->
      let fam = Mds_lb.family ~k in
      let lb =
        Framework.lower_bound_rounds ~input_bits:fam.Framework.input_bits
          ~cut:(Framework.cut_size fam) ~n:fam.Framework.nvertices
      in
      Printf.printf "  %6d %8d %6d %6d %14.1f\n" k fam.Framework.nvertices
        fam.Framework.input_bits (Framework.cut_size fam) lb)
    [ 4; 16; 64; 256; 1024 ]
