(* Tests for the sharded, resumable sweep engine: the shard partition is
   an exact disjoint cover of the pair space, merged shard streams are
   bit-identical to the from-scratch oracle under any shard count /
   permutation / resume point, crash injection leaves a store a resumed
   run finishes with zero recomputation, and corrupted store artifacts
   are detected by checksum and transparently recomputed. *)

open Ch_graph
open Ch_cc
open Ch_core
open Ch_sweep
module Obs = Ch_obs.Obs
module Cache = Ch_solvers.Cache
module Mis = Ch_solvers.Mis

let qt = QCheck_alcotest.to_alcotest

(* ---------------------------------------------------------------- *)
(* Helpers                                                          *)
(* ---------------------------------------------------------------- *)

let mds_fam =
  lazy
    (let cat = Ch_lbgraphs.Families.catalog () in
     (Registry.find_exn cat "mds").Registry.scratch 2)

(* A cheap synthetic family: its verdict is an edge count, so qcheck
   can afford hundreds of full sweeps.  It is a declared encoding like
   every real family: vertex 0 is Alice's hub and 1..k her leaves, k + 1
   is Bob's hub and k + 2..2k + 1 his, and bit i of a player adds the
   edge from the player's hub to its leaf i when set.  The objective is
   the edge count mod 2 and the goal At_most 0, so P is "an even number
   of set bits", which is f. *)
let dummy_fam k : Framework.t =
  let n = 2 * (k + 1) in
  let bit hub i = { Framework.at0 = []; at1 = [ Framework.Edge (hub, hub + 1 + i, 1) ] } in
  Framework.family ~name:"dummy" ~params:[ ("k", k) ] ~side:(Array.init n (fun v -> v <= k))
    ~core:(fun () -> Framework.Undirected (Graph.create n)) ~input_bits:k ~x:(bit 0)
    ~y:(bit (k + 1))
    ~objective:(Framework.Of_graph (fun g -> Graph.m g mod 2)) ~goal:(Framework.At_most 0)
    ~f:(fun x y -> (Bits.popcount x + Bits.popcount y) mod 2 = 0)

(* The single-process scratch stream a sweep must reproduce. *)
let scratch_stream fam mode =
  fst (Framework.verdicts (Framework.Scratch fam) mode)

let total fam mode = Pairs.total ~k:fam.Framework.input_bits mode

(* Fault injection is exact on either pool width. *)
let serial = lazy (Pool.create ~jobs:1 ())
let two_workers = lazy (Pool.create ~jobs:2 ())

let tmp_counter = ref 0

let temp_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ch_test_sweep_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir f =
  let d = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let check_verdicts msg expected got =
  Alcotest.(check (array bool)) msg expected got

(* ---------------------------------------------------------------- *)
(* Shard descriptors: packing and partition                         *)
(* ---------------------------------------------------------------- *)

(* pack/unpack round-trips every valid (index, lo, hi) triple and the
   packed value is a non-negative immediate. *)
let prop_pack_roundtrip =
  QCheck.Test.make ~count:500 ~name:"shard pack/unpack roundtrip"
    QCheck.(
      triple (int_bound (Shard.max_shards - 1)) (int_bound Shard.max_pairs)
        (int_bound Shard.max_pairs))
    (fun (index, a, b) ->
      let lo = min a b and hi = max a b in
      let s = Shard.make ~index ~lo ~hi in
      let p = Shard.pack s in
      let s' = Shard.unpack p in
      p >= 0 && Shard.index s' = index && Shard.lo s' = lo && Shard.hi s' = hi
      && Shard.count s' = hi - lo)

let test_pack_rejects () =
  Alcotest.check_raises "negative packed value"
    (Invalid_argument "Shard.unpack: not a packed shard") (fun () ->
      ignore (Shard.unpack (-1)));
  Alcotest.check_raises "lo > hi"
    (Invalid_argument "Shard.make: need 0 <= lo <= hi <= max_pairs") (fun () ->
      ignore (Shard.make ~index:0 ~lo:5 ~hi:4));
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Shard.make: index out of range") (fun () ->
      ignore (Shard.make ~index:Shard.max_shards ~lo:0 ~hi:1))

(* The partition is an exact disjoint cover: contiguous half-open
   ranges, starting at 0, ending at total, indexed in order. *)
let exact_cover ~total ~shards =
  let plan = Shard.partition ~total ~shards in
  Array.length plan = shards
  && Shard.lo plan.(0) = 0
  && Shard.hi plan.(shards - 1) = total
  && Array.for_all (fun s -> Shard.count s >= 0) plan
  && Array.to_list plan
     |> List.mapi (fun i s -> Shard.index s = i) |> List.for_all Fun.id
  && List.for_all
       (fun i -> Shard.lo plan.(i + 1) = Shard.hi plan.(i))
       (List.init (shards - 1) Fun.id)
  && Array.fold_left (fun a s -> a + Shard.count s) 0 plan = total

let prop_partition_cover =
  QCheck.Test.make ~count:500 ~name:"partition is an exact disjoint cover"
    QCheck.(pair (int_range 0 100_000) (int_range 1 256))
    (fun (total, shards) -> exact_cover ~total ~shards)

(* The same, anchored on real pair-space sizes: exhaustive and sampled
   totals for every K <= 5, across a spread of shard counts including
   shards > total. *)
let test_partition_family_totals () =
  for k = 1 to 5 do
    let fam = dummy_fam k in
    if not (Framework.sided fam) then Alcotest.failf "the dummy family at K=%d is not sided" k;
    List.iter
      (fun mode ->
        let total = total fam mode in
        List.iter
          (fun shards ->
            if not (exact_cover ~total ~shards) then
              Alcotest.failf "not an exact cover: K=%d total=%d shards=%d" k
                total shards)
          [ 1; 2; 3; 7; 8; 13; 64; total + 3 ])
      [ Pairs.Exhaustive; Pairs.Sampled { seed = 5; samples = 29 } ]
  done

(* ---------------------------------------------------------------- *)
(* Merge determinism: any permutation, any resume point              *)
(* ---------------------------------------------------------------- *)

(* Computing the shards in an arbitrary permutation and merging by
   descriptor offset reproduces the oracle stream bit-for-bit. *)
let prop_permuted_merge =
  QCheck.Test.make ~count:60
    ~name:"permuted shard merge = exhaustive_verdicts"
    QCheck.(triple (int_range 1 5) (int_range 1 12) (int_range 0 1000))
    (fun (k, shards, salt) ->
      let fam = dummy_fam k in
      let total = total fam Pairs.Exhaustive in
      let plan = Shard.partition ~total ~shards in
      let gen = Pairs.pair_at ~k Pairs.Exhaustive in
      let order =
        (* a deterministic pseudo-random permutation of the shard list *)
        List.init shards Fun.id
        |> List.map (fun i -> ((Hashtbl.hash (salt, i) : int), i))
        |> List.sort compare |> List.map snd
      in
      let verdicts = Array.make total false in
      List.iter
        (fun i ->
          let s = plan.(i) in
          for j = 0 to Shard.count s - 1 do
            let x, y = gen (Shard.lo s + j) in
            verdicts.(Shard.lo s + j) <- fam.Framework.f x y
          done)
        order;
      verdicts = scratch_stream fam Pairs.Exhaustive)

(* Interrupt a store-backed sweep after a random number of shards, on a
   one- or a two-worker pool, then resume: exactly [fault] shards were
   persisted, the merged stream is bit-identical to the one-shot oracle
   and nothing already persisted is recomputed. *)
let prop_resume_any_point =
  QCheck.Test.make ~count:25 ~name:"resume from any fault point = oracle"
    QCheck.(quad (int_range 1 4) (int_range 1 8) (int_range 0 8) bool)
    (fun (k, shards, fault, wide) ->
      let fam = dummy_fam k in
      let mode = Pairs.Exhaustive in
      let pool = Lazy.force (if wide then two_workers else serial) in
      with_temp_dir (fun dir ->
          let interrupted =
            match
              Sweep.run ~pool ~store_dir:dir ~fault_after:fault fam ~mode
                ~shards
            with
            | (_ : Sweep.outcome) -> false
            | exception Sweep.Interrupted n ->
                if n <> min fault shards then
                  QCheck.Test.fail_reportf
                    "interrupted after %d shards, expected %d" n
                    (min fault shards);
                true
          in
          if interrupted <> (fault < shards) then
            QCheck.Test.fail_reportf
              "fault=%d shards=%d: interrupted=%b" fault shards interrupted;
          let o = Sweep.run ~pool ~store_dir:dir fam ~mode ~shards in
          if interrupted && o.Sweep.shards_resumed <> fault then
            QCheck.Test.fail_reportf "resumed %d shards, expected %d"
              o.Sweep.shards_resumed fault;
          o.Sweep.shards_recomputed = 0
          && o.Sweep.failures = 0
          && o.Sweep.shards_resumed + o.Sweep.shards_completed = shards
          && o.Sweep.verdicts = scratch_stream fam Pairs.Exhaustive))

(* The sampled pair space merges just as deterministically, including
   through a store round-trip. *)
let test_sampled_matches_oracle () =
  let fam = dummy_fam 5 in
  let mode = Pairs.Sampled { seed = 3; samples = 37 } in
  let oracle = scratch_stream fam mode in
  let scratch = Sweep.run fam ~mode ~shards:5 in
  check_verdicts "scratch sampled sweep" oracle scratch.Sweep.verdicts;
  with_temp_dir (fun dir ->
      let first = Sweep.run ~store_dir:dir fam ~mode ~shards:5 in
      let again = Sweep.run ~store_dir:dir fam ~mode ~shards:5 in
      check_verdicts "stored sampled sweep" oracle first.Sweep.verdicts;
      check_verdicts "fully resumed sampled sweep" oracle again.Sweep.verdicts;
      Alcotest.(check int) "all shards resumed" 5 again.Sweep.shards_resumed;
      Alcotest.(check int) "nothing recomputed" 0 again.Sweep.shards_completed)

(* ---------------------------------------------------------------- *)
(* Crash injection on a real family                                 *)
(* ---------------------------------------------------------------- *)

(* Kill the sweep after 2 of 5 shards, check the store holds only
   intact blocks, then resume and demand zero recomputation — both in
   the outcome and in the sweep.shards.* obs counters. *)
let test_crash_recovery_mds () =
  let fam = Lazy.force mds_fam in
  let mode = Pairs.Exhaustive in
  let shards = 5 in
  let pool = Lazy.force serial in
  with_temp_dir (fun dir ->
      (match
         Sweep.run ~pool ~store_dir:dir ~fault_after:2 fam ~mode ~shards
       with
      | _ -> Alcotest.fail "faulted sweep did not raise Interrupted"
      | exception Sweep.Interrupted n ->
          Alcotest.(check int) "shards before the crash" 2 n);
      (* Store integrity after the crash: every artifact present parses
         cleanly; nothing is corrupt. *)
      let st =
        Store.open_ ~dir ~key:(Sweep.store_key fam ~mode ~shards)
      in
      let present = ref 0 in
      Array.iter
        (fun s ->
          match Store.read_block st ~index:(Shard.index s) with
          | Store.Value v ->
              Alcotest.(check int) "block length" (Shard.count s)
                (Array.length v);
              incr present
          | Store.Missing -> ()
          | Store.Corrupt -> Alcotest.fail "corrupt block after crash")
        (Shard.partition ~total:(total fam mode) ~shards);
      Alcotest.(check int) "persisted blocks" 2 !present;
      (* Resume under telemetry. *)
      let was_enabled = Obs.enabled () in
      Obs.set_enabled true;
      Obs.reset ();
      let o = Sweep.run ~store_dir:dir fam ~mode ~shards in
      let counters = (Obs.report ()).Obs.r_counters in
      Obs.set_enabled was_enabled;
      Alcotest.(check int) "resumed shards" 2 o.Sweep.shards_resumed;
      Alcotest.(check int) "completed shards" 3 o.Sweep.shards_completed;
      Alcotest.(check int) "recomputed shards" 0 o.Sweep.shards_recomputed;
      Alcotest.(check int) "corrupt artifacts" 0 o.Sweep.artifacts_corrupt;
      Alcotest.(check int) "failures" 0 o.Sweep.failures;
      List.iter
        (fun (name, expected) ->
          Alcotest.(check int) name expected (List.assoc name counters))
        [
          ("sweep.shards.completed", 3);
          ("sweep.shards.resumed", 2);
          ("sweep.shards.recomputed", 0);
          ("sweep.store.corrupt", 0);
        ];
      check_verdicts "resumed stream = oracle"
        (scratch_stream fam Pairs.Exhaustive)
        o.Sweep.verdicts)

(* ---------------------------------------------------------------- *)
(* Store corruption                                                 *)
(* ---------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Truncated and bit-flipped blocks — and a bit-flipped memo snapshot —
   must be caught by the checksum, counted, and recomputed without
   changing the merged stream. *)
let test_store_corruption () =
  let fam = Lazy.force mds_fam in
  let mode = Pairs.Exhaustive in
  let shards = 6 in
  with_temp_dir (fun dir ->
      let first = Sweep.run ~store_dir:dir fam ~mode ~shards in
      Alcotest.(check int) "first run computes all" shards
        first.Sweep.shards_completed;
      let st =
        Store.open_ ~dir ~key:(Sweep.store_key fam ~mode ~shards)
      in
      let block i = Filename.concat (Store.dir st) (Printf.sprintf "shard-%04d.blk" i) in
      (* flip a payload bit in shard 1 *)
      let b1 = read_file (block 1) in
      let flip = Bytes.of_string b1 in
      let last = Bytes.length flip - 2 in
      Bytes.set flip last (if Bytes.get flip last = '0' then '1' else '0');
      write_file (block 1) (Bytes.to_string flip);
      (* truncate shard 3 mid-payload *)
      let b3 = read_file (block 3) in
      write_file (block 3) (String.sub b3 0 (String.length b3 - 3));
      (* corrupt the memo snapshot too *)
      let snap = Filename.concat (Store.dir st) "memo-0.snap" in
      let s = Bytes.of_string (read_file snap) in
      let mid = Bytes.length s / 2 in
      Bytes.set s mid (Char.chr (Char.code (Bytes.get s mid) lxor 0xff));
      write_file snap (Bytes.to_string s);
      Array.iter
        (fun i ->
          match Store.read_block st ~index:i with
          | Store.Corrupt -> ()
          | _ -> Alcotest.failf "tampered block %d not flagged corrupt" i)
        [| 1; 3 |];
      let o = Sweep.run ~store_dir:dir fam ~mode ~shards in
      Alcotest.(check int) "resumed" (shards - 2) o.Sweep.shards_resumed;
      Alcotest.(check int) "recomputed" 2 o.Sweep.shards_recomputed;
      Alcotest.(check int) "corrupt artifacts" 3 o.Sweep.artifacts_corrupt;
      Alcotest.(check int) "failures" 0 o.Sweep.failures;
      check_verdicts "stream unchanged by corruption"
        (scratch_stream fam Pairs.Exhaustive)
        o.Sweep.verdicts;
      (* the recomputed blocks were re-persisted intact *)
      Array.iter
        (fun i ->
          match Store.read_block st ~index:i with
          | Store.Value _ -> ()
          | _ -> Alcotest.failf "block %d not repaired in store" i)
        [| 1; 3 |])

(* Four domains write the same block 200 times each, as a pool's
   domains or the daemon's threads may: every write commits whole, none
   loses its temp file to another writer, and only the block is left. *)
let test_concurrent_writes () =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~dir ~key:"race" in
      let block = Array.init 64 (fun i -> i mod 3 = 0) in
      let writer () =
        let failed = ref 0 in
        for _ = 1 to 200 do
          try Store.write_block st ~index:0 block
          with Sys_error _ -> incr failed
        done;
        !failed
      in
      let failed =
        List.init 4 (fun _ -> Domain.spawn writer)
        |> List.fold_left (fun a d -> a + Domain.join d) 0
      in
      Alcotest.(check int) "failed writes" 0 failed;
      (match Store.read_block st ~index:0 with
      | Store.Value v -> check_verdicts "block reads back" block v
      | _ -> Alcotest.fail "block unreadable after concurrent writes");
      Alcotest.(check (list string))
        "no temp file left" [ "shard-0000.blk" ]
        (Array.to_list (Sys.readdir (Store.dir st))))

(* ---------------------------------------------------------------- *)
(* Memo-table snapshots                                             *)
(* ---------------------------------------------------------------- *)

let test_cache_snapshot_roundtrip () =
  Cache.clear ();
  (* populate two graph memos and the two digraph memos the way the
     incremental engine would *)
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  ignore (Cache.domset_prepare g ~radius:1);
  ignore (Cache.steiner_prepare g ~terminals:[ 0; 2 ] ~volatile:[ 1; 3 ] ~cap:4);
  let dg () = Digraph.of_arcs 4 [ (0, 1); (2, 3) ] in
  let candidates = [ (1, 2); (3, 0) ] in
  ignore (Cache.hampath_prepare (dg ()) ~candidates);
  ignore (Cache.dsteiner_prepare (dg ()) ~root:0 ~terminals:[ 1 ]);
  let snap = Cache.snapshot () in
  Cache.clear ();
  Alcotest.(check int) "restore brings back all four tables" 4 (Cache.restore snap);
  Alcotest.(check int) "second restore adds nothing" 0 (Cache.restore snap);
  (* the restored tables serve prepares, and the pattern table answers
     without a rebuild *)
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  let hp = Cache.hampath_prepare (dg ()) ~candidates in
  let path = Cache.hampath_directed_path hp ~extra:[ (1, 2) ] in
  let ds = Cache.dsteiner_prepare (dg ()) ~root:0 ~terminals:[ 1 ] in
  let counters = (Obs.report ()).Obs.r_counters in
  Obs.set_enabled was_enabled;
  Alcotest.(check (option (list int))) "restored hampath answers" (Some [ 0; 1; 2; 3 ]) path;
  Alcotest.(check int) "no hampath rebuild" 0 (List.assoc "cache.hampath.builds" counters);
  Alcotest.(check int) "hampath prepare hit" 0 (Cache.hampath_stats hp).Cache.misses;
  Alcotest.(check int) "dsteiner prepare hit" 0 (Cache.dsteiner_stats ds).Cache.misses;
  (* garbage, and a snapshot under the previous format's tag (whose
     memos had another shape) *)
  let old_format = "chcache3" ^ String.sub snap 8 (String.length snap - 8) in
  List.iter
    (fun s ->
      match Cache.restore s with
      | _ -> Alcotest.fail "garbage restore did not fail"
      | exception Failure _ -> ())
    [ "garbage"; old_format ];
  Cache.clear ()

(* The MIS/MWIS memo tables hold a mutex and a lazy evaluation closure,
   so their snapshot form is a projection to marshal-safe arrays and
   restore re-derives the lock and evaluator.  Check the full round
   trip: lazily-solved values survive, restored tables answer queries
   bit-identically to the from-scratch solvers on the patched graph. *)
let test_mis_snapshot_roundtrip () =
  Cache.clear ();
  let mk () =
    let g = Graph.of_edges 6 [ (0, 3); (1, 4); (2, 5); (3, 4); (4, 5) ] in
    Graph.set_vweight g 0 3;
    Graph.set_vweight g 1 5;
    Graph.set_vweight g 4 7;
    g
  in
  let volatile = [ 0; 1; 2 ] in
  let extra = [ (0, 1); (1, 2) ] in
  let patched = mk () in
  List.iter (fun (u, v) -> Graph.add_edge patched u v) extra;
  let expect_alpha = Mis.alpha patched in
  let expect_w = fst (Mis.max_weight_set patched) in
  let m = Cache.mis_prepare (mk ()) ~volatile in
  let w = Cache.mwis_prepare (mk ()) ~volatile in
  Alcotest.(check int) "mis before snapshot" expect_alpha
    (Cache.mis_alpha m ~extra);
  Alcotest.(check int) "mwis before snapshot" expect_w
    (Cache.mwis_weight w ~extra);
  let snap = Cache.snapshot () in
  Cache.clear ();
  let n = Cache.restore snap in
  Alcotest.(check bool) "restore adds both tables" true (n >= 2);
  Alcotest.(check int) "second restore adds nothing" 0 (Cache.restore snap);
  (* fresh prepared instances hit the restored memo and answer exactly *)
  let m' = Cache.mis_prepare (mk ()) ~volatile in
  let w' = Cache.mwis_prepare (mk ()) ~volatile in
  Alcotest.(check int) "mis after restore" expect_alpha
    (Cache.mis_alpha m' ~extra);
  Alcotest.(check int) "mwis after restore" expect_w
    (Cache.mwis_weight w' ~extra);
  (* unsolved entries stayed lazy and still solve on demand *)
  Alcotest.(check int) "mis, no extra edges" (Mis.alpha (mk ()))
    (Cache.mis_alpha m' ~extra:[]);
  Alcotest.(check int) "mwis, no extra edges"
    (fst (Mis.max_weight_set (mk ())))
    (Cache.mwis_weight w' ~extra:[]);
  Cache.clear ()

(* ---------------------------------------------------------------- *)
(* Cooperative stop: should_stop behaves like fault injection        *)
(* ---------------------------------------------------------------- *)

(* A should_stop closure that trips mid-sweep interrupts like
   --fault-after: finished shards persist, Interrupted carries their
   count, and a resumed run completes with zero recomputation. *)
let test_should_stop () =
  let fam = dummy_fam 4 in
  let mode = Pairs.Exhaustive in
  let shards = 6 in
  let pool = Lazy.force serial in
  with_temp_dir (fun dir ->
      let calls = ref 0 in
      let stop () =
        incr calls;
        !calls > 2
      in
      let persisted =
        match
          Sweep.run ~pool ~store_dir:dir ~should_stop:stop fam ~mode ~shards
        with
        | _ -> Alcotest.fail "stopped sweep did not raise Interrupted"
        | exception Sweep.Interrupted n ->
            Alcotest.(check bool) "stopped mid-sweep" true
              (n >= 1 && n < shards);
            n
      in
      let o = Sweep.run ~pool ~store_dir:dir fam ~mode ~shards in
      Alcotest.(check int) "resumed shards" persisted o.Sweep.shards_resumed;
      Alcotest.(check int) "recomputed shards" 0 o.Sweep.shards_recomputed;
      Alcotest.(check int) "all shards covered" shards
        (o.Sweep.shards_resumed + o.Sweep.shards_completed);
      check_verdicts "stop/resume stream = oracle"
        (scratch_stream fam Pairs.Exhaustive)
        o.Sweep.verdicts)

(* Span shape and counts, with the wall-clock timings stripped. *)
type sshape = S of string * int * sshape list

let rec sspan sp =
  S (sp.Obs.sp_name, sp.Obs.sp_count, List.map sspan sp.Obs.sp_children)

let obs_totals () =
  let r = Obs.report () in
  (r.Obs.r_counters, List.map sspan r.Obs.r_spans)

(* The oracle runs first on the default pool, so this sweep starts
   after other domains exist — any order of the suites must work.  On
   a two-worker pool, the sweep matches that oracle, and its obs totals
   (counters and span-forest shape) are bit-identical to a serial run
   of the same sweep.  The mds family is the probe: its scratch
   verdicts drive the domset solver, whose node/prune counters are
   deterministic per pair. *)
let test_wide_pool_matches_oracle () =
  let fam = Lazy.force mds_fam in
  let mode = Pairs.Exhaustive in
  let shards = 7 in
  let oracle =
    fst
      (Framework.verdicts ~pool:(Pool.default ()) (Framework.Scratch fam) mode)
  in
  let was_enabled = Obs.enabled () in
  Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) @@ fun () ->
  Obs.set_enabled true;
  let sweep pool =
    Obs.reset ();
    with_temp_dir (fun dir ->
        let pool = Lazy.force pool in
        let o = Sweep.run ~pool ~store_dir:dir fam ~mode ~shards in
        (o, obs_totals ()))
  in
  let o2, wide_totals = sweep two_workers in
  Alcotest.(check int) "failures" 0 o2.Sweep.failures;
  Alcotest.(check int) "completed" shards o2.Sweep.shards_completed;
  check_verdicts "two-worker sweep = oracle" oracle o2.Sweep.verdicts;
  let o1, serial_totals = sweep serial in
  Alcotest.(check int) "serial failures" 0 o1.Sweep.failures;
  check_verdicts "serial sweep = oracle" oracle o1.Sweep.verdicts;
  Alcotest.(check (list (pair string int)))
    "counter totals = serial totals" (fst serial_totals) (fst wide_totals);
  Alcotest.(check bool) "span forest = serial span forest" true
    (snd serial_totals = snd wide_totals)

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "sweep"
    [
      ( "shard",
        [
          qt prop_pack_roundtrip;
          Alcotest.test_case "pack validation" `Quick test_pack_rejects;
          qt prop_partition_cover;
          Alcotest.test_case "family pair-space cover (K <= 5)" `Quick
            test_partition_family_totals;
        ] );
      ( "determinism",
        [
          qt prop_permuted_merge;
          qt prop_resume_any_point;
          Alcotest.test_case "sampled mode" `Quick test_sampled_matches_oracle;
          Alcotest.test_case "two-worker pool after the default pool" `Quick
            test_wide_pool_matches_oracle;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash injection + resume (mds)" `Quick
            test_crash_recovery_mds;
          Alcotest.test_case "store corruption" `Quick test_store_corruption;
          Alcotest.test_case "concurrent writes to one block" `Quick
            test_concurrent_writes;
          Alcotest.test_case "cache snapshot roundtrip" `Quick
            test_cache_snapshot_roundtrip;
          Alcotest.test_case "mis/mwis snapshot roundtrip" `Quick
            test_mis_snapshot_roundtrip;
          Alcotest.test_case "cooperative should_stop + resume" `Quick
            test_should_stop;
        ] );
    ]
