open Ch_core
open Ch_lbgraphs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pool4 = lazy (Pool.create ~jobs:4 ())
let pool1 = lazy (Pool.create ~jobs:1 ())

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_parallel_map_vs_list_map () =
  let xs = List.init 1000 (fun i -> i - 500) in
  let f x = (x * x) + (x mod 7) in
  check "1000 tasks, jobs=4" true
    (Pool.parallel_map (Lazy.force pool4) f xs = List.map f xs);
  check "1000 tasks, jobs=1" true
    (Pool.parallel_map (Lazy.force pool1) f xs = List.map f xs);
  check "empty" true (Pool.parallel_map (Lazy.force pool4) f [] = []);
  check "singleton" true (Pool.parallel_map (Lazy.force pool4) f [ 3 ] = [ f 3 ])

let test_parallel_chunks () =
  let pool = Lazy.force pool4 in
  (* per-chunk sums over [0, 10_000) merge to the closed-form total *)
  let sums =
    Pool.parallel_chunks pool ~lo:0 ~hi:10_000 (fun lo hi ->
        let s = ref 0 in
        for i = lo to hi - 1 do
          s := !s + i
        done;
        !s)
  in
  check_int "range sum" (10_000 * 9_999 / 2) (List.fold_left ( + ) 0 sums);
  (* chunk boundaries partition the range in order *)
  let bounds =
    Pool.parallel_chunks pool ~chunk_size:7 ~lo:3 ~hi:50 (fun lo hi -> (lo, hi))
  in
  let rec contiguous = function
    | (_, hi) :: ((lo, _) :: _ as rest) -> hi = lo && contiguous rest
    | _ -> true
  in
  check "contiguous chunks" true (contiguous bounds);
  check "covers lo" true (fst (List.hd bounds) = 3);
  check "covers hi" true (snd (List.nth bounds (List.length bounds - 1)) = 50);
  check "empty range" true
    (Pool.parallel_chunks pool ~lo:5 ~hi:5 (fun lo hi -> (lo, hi)) = [])

let test_nested_run () =
  (* a nested parallel_map from inside a task falls back to sequential
     execution instead of deadlocking *)
  let pool = Lazy.force pool4 in
  let rows =
    Pool.parallel_map pool
      (fun i -> Pool.parallel_map pool (fun j -> (10 * i) + j) [ 0; 1; 2 ])
      [ 1; 2; 3; 4 ]
  in
  check "nested" true
    (rows = [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ])

exception Boom of int

let test_exception_propagation () =
  let pool = Lazy.force pool4 in
  let ran = Atomic.make 0 in
  (match
     Pool.run pool
       (List.init 100 (fun i _ ->
            Atomic.incr ran;
            if i mod 10 = 3 then raise (Boom i)))
   with
  | () -> Alcotest.fail "expected an exception"
  | exception Boom _ -> ());
  (* the batch drained: every task was attempted despite the failures *)
  check_int "all tasks attempted" 100 (Atomic.get ran);
  (* the pool survives and is reusable after a failing batch *)
  let xs = List.init 50 Fun.id in
  check "reusable after failure" true
    (Pool.parallel_map pool (fun x -> x * 2) xs = List.map (fun x -> x * 2) xs)

(* ------------------------------------------------------------------ *)
(* Parallel verification determinism: CH_JOBS=1 vs CH_JOBS=4          *)
(* ------------------------------------------------------------------ *)

(* Both engines, on a 1- and a 4-worker pool, must produce one stream.
   Exhaustive sweeps on the Maxcut/Steiner k=2 families cost several
   exact-solver seconds per pair space, so only the cheap MDS family is
   swept exhaustively; the others are covered by the sampled mode. *)

let incrementals () =
  [
    Mds_lb.incremental ~k:2;
    Maxcut_lb.incremental ~k:2;
    Steiner_lb.incremental ~k:2;
  ]

let engines inc =
  [ ("scratch", Framework.Scratch inc.Framework.scratch);
    ("incremental", Framework.Incremental inc) ]

let check_schedule_invariant mode ~total inc =
  let fam = inc.Framework.scratch in
  let streams =
    List.concat_map
      (fun (ename, engine) ->
        List.map
          (fun (pname, pool) ->
            ( Printf.sprintf "%s %s %s" fam.Framework.name ename pname,
              fst (Framework.verdicts ~pool:(Lazy.force pool) engine mode) ))
          [ ("jobs=1", pool1); ("jobs=4", pool4) ])
      (engines inc)
  in
  let reference = snd (List.hd streams) in
  List.iter
    (fun (l, v) -> check (l ^ " = scratch jobs=1") true (v = reference))
    streams;
  check_int (fam.Framework.name ^ " total") total (Array.length reference);
  check_int (fam.Framework.name ^ " no failures") 0
    (Framework.failures fam mode reference)

let test_verdicts_exhaustive_jobs_invariant () =
  check_schedule_invariant Pairs.Exhaustive ~total:(16 * 16)
    (Mds_lb.incremental ~k:2)

let test_verdicts_sampled_jobs_invariant () =
  List.iter
    (check_schedule_invariant
       (Pairs.Sampled { seed = 77; samples = 8 })
       ~total:12)
    (incrementals ())

(* [~range] slices over a random cut of [0, total), concatenated in
   order, give the whole stream — the contract the sweep shards rely on. *)
let test_verdicts_range_concat () =
  let inc = Mds_lb.incremental ~k:2 in
  let rng = Random.State.make [| 2019 |] in
  let k = inc.Framework.scratch.Framework.input_bits in
  let check_mode mode (ename, engine) =
    let total = Pairs.total ~k mode in
    let whole, _ = Framework.verdicts ~pool:(Lazy.force pool4) engine mode in
    for _ = 1 to 3 do
      let cuts =
        List.init (Random.State.int rng 6) (fun _ ->
            Random.State.int rng (total + 1))
      in
      let rec slices = function
        | lo :: (hi :: _ as rest) ->
            fst (Framework.verdicts ~range:(lo, hi) engine mode) :: slices rest
        | _ -> []
      in
      let bounds = (0 :: List.sort compare cuts) @ [ total ] in
      check (Printf.sprintf "%s, %d cuts" ename (List.length cuts)) true
        (Array.concat (slices bounds) = whole)
    done
  in
  List.iter
    (fun mode -> List.iter (check_mode mode) (engines inc))
    [ Pairs.Exhaustive; Pairs.Sampled { seed = 5; samples = 29 } ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map = List.map" `Quick
            test_parallel_map_vs_list_map;
          Alcotest.test_case "parallel_chunks" `Quick test_parallel_chunks;
          Alcotest.test_case "nested run" `Quick test_nested_run;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
        ] );
      ( "verify",
        [
          Alcotest.test_case "verdicts exhaustive schedule-invariant" `Quick
            test_verdicts_exhaustive_jobs_invariant;
          Alcotest.test_case "verdicts sampled schedule-invariant" `Quick
            test_verdicts_sampled_jobs_invariant;
          Alcotest.test_case "verdicts ~range concatenation" `Quick
            test_verdicts_range_concat;
        ] );
    ]
