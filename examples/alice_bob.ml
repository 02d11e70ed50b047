(* The Theorem 1.1 reduction, end to end.

   A CONGEST algorithm that decides "γ(G) ≤ 4 log k + 2" is run on the
   Figure 1 graph G_{x,y} with Alice simulating V_A and Bob V_B.  The only
   information that crosses between the players is the messages on E_cut —
   which the harness counts bit by bit, and differences against the
   network oracle.  Because the predicate equals ¬DISJ(x,y), the two
   players end up solving set disjointness, so the number of crossing bits
   is at least CC(DISJ_{k²}) = Ω(k²); dividing by |E_cut|·log n gives the
   paper's Ω̃(n²) round bound.

   Run with: dune exec examples/alice_bob.exe *)

open Ch_cc
open Ch_core
open Ch_lbgraphs
open Ch_reduction

let () =
  let k = 4 in
  let mds = Registry.find_exn (Families.catalog ()) "mds" in
  match Bound.sweep_registry mds ~k ~samples:6 with
  | None -> invalid_arg "alice_bob: mds has no reduction"
  | Some (rows, rep, skipped) ->
      Printf.printf
        "Simulating the gather-and-solve CONGEST algorithm for exact MDS on\n\
         G_{x,y} (k = %d, n = %d, |E_cut| = %d), with Alice and Bob splitting\n\
         the graph; %d disconnected pair(s) skipped.\n\n"
        k rep.Bound.rep_n rep.Bound.rep_cut skipped;
      Printf.printf "  %-18s %-18s %-8s %-10s %-8s %-9s %s\n" "x" "y" "DISJ?"
        "decided" "rounds" "cut bits" "oracle";
      List.iter
        (fun r ->
          let t = r.Bound.bt in
          Printf.printf "  %-18s %-18s %-8b %-10s %-8d %-9d %s\n"
            (Bits.to_string r.Bound.bx) (Bits.to_string r.Bound.by)
            (Commfn.disj r.Bound.bx r.Bound.by)
            (if t.Simulate.correct then "correct" else "WRONG")
            t.Simulate.rounds t.Simulate.cut_bits
            (if r.Bound.bmatch then "ok" else "MISMATCH"))
        rows;
      Printf.printf
        "\nEvery decision is correct, so the transcript solves DISJ_{k²}: the\n\
         crossing bits must total Ω(k²) over worst-case inputs, no matter how\n\
         clever the CONGEST algorithm is.  That is Theorem 1.1.\n"
