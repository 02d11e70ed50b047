(* The benchmark's own tests: its checkers reject wrong answers, the
   host correction is the identity at the reference probe time, the op
   sequence depends only on the seed, and every workload exits non-zero
   on an injected wrong answer and leaves no files behind. *)

open Ch_cc
open Ch_core
open Perfbench
module Simulate = Ch_reduction.Simulate
module Sweep = Ch_sweep.Sweep
module Shard = Ch_sweep.Shard

let main_exe = ref ""
let catalog = Ch_lbgraphs.Families.catalog

let test_verdict () =
  Alcotest.(check bool) "equal verdict" true (Check.verdict ~expected:true true);
  Alcotest.(check bool) "flipped verdict" false (Check.verdict ~expected:true false);
  Alcotest.(check bool) "flipped verdict" false (Check.verdict ~expected:false true)

let test_transcript () =
  let spec = Option.get (Simulate.registry_spec (Registry.find_exn (catalog ()) "mds") ~k:2) in
  let x = Bits.of_list [ false; true; true; false ] and y = Bits.of_list [ true; false; true; false ] in
  let expected = spec.Simulate.sfam.Framework.f x y in
  let t = spec.Simulate.srun x y and r = spec.Simulate.sref x y in
  Alcotest.(check bool) "honest transcript" true (Check.transcript ~expected t r);
  Alcotest.(check bool) "one more cut bit" false
    (Check.transcript ~expected { t with Simulate.cut_bits = t.Simulate.cut_bits + 1 } r);
  Alcotest.(check bool) "one less cut bit" false
    (Check.transcript ~expected { t with Simulate.cut_bits = t.Simulate.cut_bits - 1 } r);
  Alcotest.(check bool) "wrong expectation" false (Check.transcript ~expected:(not expected) t r)

let test_digest () =
  let fam = (Registry.find_exn (catalog ()) "maxis").Registry.scratch 2 in
  let pool = Pool.create ~jobs:1 () in
  let o = Sweep.run ~pool fam ~mode:Shard.Exhaustive ~shards:4 in
  let d = Sweep.digest o.Sweep.verdicts in
  let expected =
    Array.init (Shard.total fam Shard.Exhaustive) (fun i ->
        let x, y = Shard.generator fam Shard.Exhaustive i in
        fam.Framework.f x y)
  in
  Alcotest.(check bool) "fresh sweep" true (Check.fresh_sweep ~expected o);
  let wrong = Array.copy expected in
  wrong.(3) <- not wrong.(3);
  Alcotest.(check bool) "fresh sweep with a flipped verdict" false
    (Check.fresh_sweep ~expected:wrong o);
  Alcotest.(check bool) "same digest" true (Check.digest ~expected:d d);
  Alcotest.(check bool) "wrong digest" false (Check.digest ~expected:d ("0" ^ d));
  let flipped = Array.copy o.Sweep.verdicts in
  flipped.(0) <- not flipped.(0);
  Alcotest.(check bool) "digest of a flipped stream" false
    (Check.digest ~expected:d (Sweep.digest flipped));
  let resumed = { o with Sweep.shards_resumed = 4; shards_completed = 0 } in
  Alcotest.(check bool) "resumed sweep" true (Check.resumed_sweep ~fresh:d ~resumed:4 resumed);
  Alcotest.(check bool) "resumed to another stream" false
    (Check.resumed_sweep ~fresh:("0" ^ d) ~resumed:4 resumed);
  Alcotest.(check bool) "resumed with a recomputed shard" false
    (Check.resumed_sweep ~fresh:d ~resumed:4 { resumed with Sweep.shards_recomputed = 1 });
  Pool.shutdown pool

let test_correction () =
  List.iter
    (fun x ->
      Alcotest.(check (float 0.)) "identity at ref" x (Host.correct ~probe_ms:Host.ref_ms x))
    [ 0.; 1e-6; 0.37; 12.5; 4096. ];
  Alcotest.(check (float 1e-12)) "a host twice as slow scales by 2 ** -share"
    (3. *. (0.5 ** Host.share))
    (Host.correct ~probe_ms:(2. *. Host.ref_ms) 3.)

(* The class sequence of one cycle, and the share of each class. *)
let classes (w : Workload.t) seed =
  let dir = Filename.temp_file "perfbench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let ctx =
    {
      Workload.seed;
      host = Host.create ();
      dir;
      traced = false;
      inject = false;
    }
  in
  let inst = w.Workload.setup ctx in
  let seq =
    Array.to_list inst.Workload.steps
    |> List.filter_map (function Loop.Op (c, _) -> Some c | _ -> None)
  in
  inst.Workload.stop ();
  Workload.rm_rf dir;
  seq

let shares seq = List.sort compare (List.map (fun c -> (c, List.length (List.filter (( = ) c) seq))) (List.sort_uniq compare seq))

let test_sequence () =
  List.iter
    (fun w ->
      let a = classes w 3 and b = classes w 3 and c = classes w 4 in
      Alcotest.(check (list int)) (w.Workload.name ^ ": same seed, same sequence") a b;
      Alcotest.(check (list (pair int int)))
        (w.Workload.name ^ ": class shares do not depend on the seed")
        (shares a) (shares c))
    [ W_verify.workload; W_sweep.workload; W_reduction.workload ]

let run_main ~tmp args =
  let out = Filename.temp_file "perfbench" ".out" in
  let cmd =
    Filename.quote_command !main_exe ~stdout:out ~stderr:Filename.null
      ([ "--tmp"; tmp; "--seconds"; "0.05"; "--min-ops"; "20"; "--seed"; "5" ]
      @ args)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  close_in ic;
  Sys.remove out;
  (code, List.nth_opt (List.rev lines) 0)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_inject workload () =
  let tmp = Filename.temp_file "perfbench" ".run" in
  Sys.remove tmp;
  let code, last = run_main ~tmp [ "--workload"; workload; "--trace"; "0" ] in
  Alcotest.(check int) "honest run exits 0" 0 code;
  Alcotest.(check bool) "honest run is correct" true
    (match last with Some l -> contains l "\"correct\": true" | None -> false);
  let code, last = run_main ~tmp [ "--workload"; workload; "--trace"; "0"; "--inject" ] in
  Alcotest.(check int) "injected wrong answer exits 1" 1 code;
  Alcotest.(check bool) "injected run is not correct" true
    (match last with Some l -> contains l "\"correct\": false" | None -> false);
  Alcotest.(check (array string)) "no files left behind" [||] (Sys.readdir tmp);
  Unix.rmdir tmp

let () =
  main_exe := Sys.argv.(1);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "checkers",
        [
          Alcotest.test_case "flipped verdict" `Quick test_verdict;
          Alcotest.test_case "changed cut bit" `Quick test_transcript;
          Alcotest.test_case "wrong digest" `Quick test_digest;
        ] );
      ("host", [ Alcotest.test_case "identity at ref" `Quick test_correction ]);
      ("determinism", [ Alcotest.test_case "op sequence" `Quick test_sequence ]);
      ( "injected",
        List.map
          (fun w -> Alcotest.test_case w `Quick (test_inject w))
          [ "verify-inc"; "sweep-resume"; "reduction-lockstep" ] );
    ]
