(* sweep-resume: Sweep.run on cheap scratch plans cut into shards, in a
   store under the run directory.  Each plan runs fresh on an empty
   store, is interrupted by fault injection on a second store, resumes
   there, and then resumes five times on the completed first store —
   pure store reads.  Pure resumes are 5/8 of the ops and own the p50;
   fresh runs own the p99.  The only workload on lib/sweep and on the
   scratch engine (Framework.verdict).

   Four shards per plan: on a 2-vCPU KVM guest with ext4 a block write
   costs 0.1-0.6 ms and swings from second to second, so with 16-64 shards
   the writes were a quarter of the busy time and the run-to-run spread
   of ops_per_s was 25%.  Four keep every path — fresh writes, partial
   and full resumes — while the compute dominates. *)

module Obs = Ch_obs.Obs
module Framework = Ch_core.Framework
module Pool = Ch_core.Pool
module Registry = Ch_core.Registry
module Sweep = Ch_sweep.Sweep
module Shard = Ch_sweep.Shard
module Store = Ch_sweep.Store

type plan = { id : string; k : int; sampled : int option; shards : int }

let plans =
  [
    { id = "mds"; k = 2; sampled = None; shards = 4 };
    { id = "bitgadget"; k = 4; sampled = None; shards = 4 };
    { id = "steiner-node-weighted"; k = 2; sampled = None; shards = 4 };
    { id = "maxis"; k = 4; sampled = Some 256; shards = 4 };
  ]

let pure_resumes = 5
let cls_fresh = 0
let cls_fault = 1
let cls_partial = 2
let cls_resume = 3
let sp_sweep = Obs.span "bench.sweep_run"
let sp_verdict = Obs.span "bench.verdict"
let sp_write = Obs.span "bench.store_write"
let sp_read = Obs.span "bench.store_read"

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let setup (ctx : Workload.ctx) =
  let host = ctx.Workload.host and traced = ctx.Workload.traced in
  let pool = Pool.create ~jobs:1 () in
  let root = Filename.concat ctx.Workload.dir "stores" in
  Unix.mkdir root 0o755;
  let fresh_t = Layer.acc () and resume_t = Layer.acc () in
  let verdict_t = Layer.acc () and write_t = Layer.acc () and read_t = Layer.acc () in
  let bytes = ref 0 and bytes_first = ref 0 in
  let counts = ref [] in
  let injected = ref (not ctx.Workload.inject) in
  let plan_steps j p =
    let fam =
      (Registry.find_exn (Ch_lbgraphs.Families.catalog ()) p.id).Registry.scratch p.k
    in
    let seed = (ctx.Workload.seed * 1000) + j in
    let mode =
      match p.sampled with
      | None -> Shard.Exhaustive
      | Some samples -> Shard.Sampled { seed; samples }
    in
    let fault_after = p.shards / 2 in
    let gen = Shard.generator fam mode in
    let pairs = Array.init (Shard.total fam mode) gen in
    let expected = Array.map (fun (x, y) -> fam.Framework.f x y) pairs in
    let store_a = Filename.concat root (Printf.sprintf "a%d" j) in
    let store_b = Filename.concat root (Printf.sprintf "b%d" j) in
    let fresh = ref "" in
    let sweep ?fault_after store =
      Sweep.run ~pool ~store_dir:store ?fault_after fam ~mode ~shards:p.shards
    in
    let timed acc f = if traced then Layer.timed host sp_sweep acc f else f () in
    let fresh_op () =
      let o = timed fresh_t (fun () -> sweep store_a) in
      fresh := Sweep.digest o.Sweep.verdicts;
      if traced then bytes := !bytes + dir_bytes store_a;
      Check.fresh_sweep ~expected o
    in
    let fault_op () =
      match sweep ~fault_after store_b with
      | _ -> false
      | exception Sweep.Interrupted n -> n = fault_after
    in
    let resume_op ?(acc = Layer.acc ()) ~store ~resumed () =
      let o = timed acc (fun () -> sweep store) in
      let d = if !injected then !fresh else (injected := true; "0" ^ !fresh) in
      Check.resumed_sweep ~fresh:d ~resumed o
    in
    let partial_op () = resume_op ~store:store_b ~resumed:fault_after () in
    let pure_op () = resume_op ~acc:resume_t ~store:store_a ~resumed:p.shards () in
    (* untimed: the previous cycle's stores go, so every cycle starts
       from the same file-system state *)
    let clear_stores () =
      Workload.rm_rf store_a;
      Workload.rm_rf store_b;
      true
    in
    (* traced only: Framework.verdict and Store.write_block/read_block
       timed directly, outside the sweep *)
    let layer_probe () =
      Array.iter
        (fun (x, y) ->
          ignore (Layer.timed host sp_verdict verdict_t (fun () -> Framework.verdict fam x y)))
        (Array.sub pairs 0 32);
      let st = Store.open_ ~dir:(Filename.concat root "direct") ~key:"k" in
      let block = Array.init 8 (fun i -> i land 1 = 0) in
      let ok = ref true in
      for index = 0 to p.shards - 1 do
        Layer.timed host sp_write write_t (fun () -> Store.write_block st ~index block)
      done;
      for index = 0 to p.shards - 1 do
        match Layer.timed host sp_read read_t (fun () -> Store.read_block st ~index) with
        | Store.Value v when v = block -> ()
        | _ -> ok := false
      done;
      Workload.rm_rf (Filename.concat root "direct");
      !ok
    in
    [
      Loop.Aside clear_stores;
      Loop.Op (cls_fresh, fresh_op);
      Loop.Op (cls_fault, fault_op);
      Loop.Op (cls_partial, partial_op);
    ]
    @ List.init pure_resumes (fun _ -> Loop.Op (cls_resume, pure_op))
    @ if traced then [ Loop.Aside layer_probe ] else []
  in
  let order = Workload.shuffle ctx.Workload.seed (Array.of_list (List.mapi (fun j p -> (j, p)) plans)) in
  let steps = Array.of_list (List.concat_map (fun (j, p) -> plan_steps j p) (Array.to_list order)) in
  let first_cycle () =
    let r = Obs.report () in
    bytes_first := !bytes;
    counts :=
      List.map
        (fun (name, c) -> (name, float_of_int (Layer.counter r c)))
        [
          ("sweep.shards_completed", "sweep.shards.completed");
          ("sweep.shards_resumed", "sweep.shards.resumed");
          ("sweep.shards_recomputed", "sweep.shards.recomputed");
        ]
  in
  let layers _ =
    [
      ("sweep.fresh_ms", Layer.mean_ms fresh_t);
      ("sweep.resume_ms", Layer.mean_ms resume_t);
      ("core.verdict_us", Layer.mean_us verdict_t);
      ("sweep.store_write_us", Layer.mean_us write_t);
      ("sweep.store_read_us", Layer.mean_us read_t);
      ("sweep.store_bytes", float_of_int !bytes_first);
    ]
    @ !counts
  in
  {
    Workload.steps;
    classes = [| "fresh"; "fault"; "partial"; "resume" |];
    first_cycle;
    layers;
    stop =
      (fun () ->
        Pool.shutdown pool;
        Workload.rm_rf root);
  }

let workload = { Workload.name = "sweep-resume"; setup }
