open Ch_cc
module Framework = Ch_core.Framework
module Pool = Ch_core.Pool
module Obs = Ch_obs.Obs
module Cache = Ch_solvers.Cache
module Props = Ch_graph.Props

(* Bumped once per run by the parent — never by workers — so the totals
   are independent of the schedule and the worker count. *)
let c_completed = Obs.counter "sweep.shards.completed"
let c_resumed = Obs.counter "sweep.shards.resumed"
let c_recomputed = Obs.counter "sweep.shards.recomputed"
let c_corrupt = Obs.counter "sweep.store.corrupt"
let sp_shard = Obs.span "sweep_shard"

type outcome = {
  verdicts : bool array;
  failures : int;
  shards_total : int;
  shards_completed : int;
  shards_resumed : int;
  shards_recomputed : int;
  artifacts_corrupt : int;
  tables_restored : int;
}

exception Interrupted of int

let store_key fam ~mode ~shards =
  let zeros = Bits.zeros fam.Framework.input_bits in
  let core = Framework.graph_of (fam.Framework.build zeros zeros) in
  let mode_tag =
    match mode with
    | Shard.Exhaustive -> "x"
    | Shard.Sampled { seed; samples } -> Printf.sprintf "s:%d:%d" seed samples
  in
  let desc =
    Printf.sprintf "%s|%s|k=%d|%s|total=%d|shards=%d" fam.Framework.name
      (String.concat ","
         (List.map
            (fun (k, v) -> k ^ "=" ^ string_of_int v)
            fam.Framework.params))
      fam.Framework.input_bits mode_tag (Shard.total fam mode) shards
  in
  Printf.sprintf "%08x-%s"
    (Props.structural_hash core land 0xffffffff)
    (String.sub (Digest.to_hex (Digest.string desc)) 0 12)

let compute_shard gen fam s =
  Obs.with_span sp_shard (fun () ->
      Array.init (Shard.count s) (fun j ->
          let x, y = gen (Shard.lo s + j) in
          Framework.verdict fam x y))

(* A worker process: the interleaved slice [pos mod procs = c] of the
   pending shards, computed sequentially (the inherited pool's domains
   live in the parent) and handed back through the store.  [Unix._exit]
   skips [at_exit] — the parent owns the pool shutdown hooks — and
   skips channel flushing, so a worker never re-emits inherited buffered
   output. *)
let child_main st gen fam plan pending ~procs ~fault_after c =
  (match
     try
       (* The fork copied the parent's accumulated telemetry; drop it so
          the parting obs snapshot holds only this worker's own work
          (the parent still reports its copy), but keep the parent's
          open-span path so worker spans merge at the same tree
          position. *)
       let obs_ctx = Obs.current_ctx () in
       if Obs.enabled () then Obs.reset ();
       Obs.with_ctx obs_ctx (fun () ->
           let computed = ref 0 in
           List.iteri
             (fun pos i ->
               if
                 pos mod procs = c
                 &&
                 match fault_after with Some f -> !computed < f | None -> true
               then begin
                 Store.write_block st
                   ~index:(Shard.index plan.(i))
                   (compute_shard gen fam plan.(i));
                 incr computed
               end)
             pending;
           (* a faulted worker simulates a kill: no parting snapshots *)
           if fault_after = None then begin
             Store.write_snapshot st ~slot:(c + 1) (Cache.snapshot ());
             if Obs.enabled () then
               Store.write_obs st ~slot:(c + 1) (Obs.Snapshot.capture ())
           end;
           0)
     with _ -> 2
   with
  | rc -> Unix._exit rc)

let run ?pool ?(procs = 1) ?store_dir ?fault_after
    ?(should_stop = fun () -> false) fam ~mode ~shards =
  if procs < 1 then invalid_arg "Sweep.run: procs must be >= 1";
  if procs > 1 && store_dir = None then
    invalid_arg "Sweep.run: multi-process sweeps need a store";
  (* Resolved only on the single-process path: Unix.fork is illegal once
     other domains run, so the multi-process path must not be the one to
     spin up the default pool. *)
  let pool () = match pool with Some p -> p | None -> Pool.default () in
  let total = Shard.total fam mode in
  let plan = Shard.partition ~total ~shards in
  let nsh = Array.length plan in
  let gen = Shard.generator fam mode in
  let blocks : bool array option array = Array.make nsh None in
  let was_corrupt = Array.make nsh false in
  let computed = Array.make nsh false in
  let resumed = ref 0 and corrupt = ref 0 and restored = ref 0 in
  let store =
    Option.map
      (fun dir -> Store.open_ ~dir ~key:(store_key fam ~mode ~shards))
      store_dir
  in
  (* Resume pass: merge stored memo snapshots, load every valid block. *)
  (match store with
  | None -> ()
  | Some st ->
      List.iter
        (fun slot ->
          match Store.read_snapshot st ~slot with
          | Store.Value snap -> (
              try restored := !restored + Cache.restore snap
              with Failure _ -> incr corrupt)
          | Store.Missing -> ()
          | Store.Corrupt -> incr corrupt)
        (Store.snapshot_slots st);
      Array.iteri
        (fun i s ->
          match Store.read_block st ~index:(Shard.index s) with
          | Store.Value v when Array.length v = Shard.count s ->
              blocks.(i) <- Some v;
              incr resumed
          | Store.Value _ | Store.Corrupt ->
              was_corrupt.(i) <- true;
              incr corrupt
          | Store.Missing -> ())
        plan);
  let pending =
    List.filter (fun i -> Option.is_none blocks.(i)) (List.init nsh Fun.id)
  in
  (* Compute pass. *)
  (if procs = 1 then begin
     (* Fault injection skips tasks by their position in the plan-ordered
        pending list, so exactly the first [fault_after] pending shards
        compute on any pool width.  [should_stop] (the CLI's signal flag)
        trips an atomic instead: in-flight shards finish and persist,
        later ones are skipped, and the run raises [Interrupted] — a
        SIGTERM stops the sweep where it lands. *)
     let skip pos =
       match fault_after with Some f -> pos >= f | None -> false
     in
     let interrupted = Atomic.make false in
     Pool.run (pool ())
       (List.mapi
          (fun pos i _task ->
            if (not (Atomic.get interrupted)) && should_stop () then
              Atomic.set interrupted true;
            if not (skip pos || Atomic.get interrupted) then begin
              let v = compute_shard gen fam plan.(i) in
              blocks.(i) <- Some v;
              computed.(i) <- true;
              match store with
              | Some st -> Store.write_block st ~index:(Shard.index plan.(i)) v
              | None -> ()
            end)
          pending)
   end
   else begin
     let st = Option.get store in
     let pending_arr = Array.of_list pending in
     let pids =
       List.init procs (fun c ->
           match Unix.fork () with
           | 0 -> child_main st gen fam plan pending ~procs ~fault_after c
           | pid -> pid)
     in
     List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
     (* Merge the workers' parting obs snapshots into this process, then
        remove them: the shards they cover are in the store now, so a
        later resume must not re-absorb the same work.  A snapshot that
        fails to parse is dropped — telemetry is best-effort, verdict
        blocks have their own integrity path. *)
     List.iter
       (fun slot ->
         (match Store.read_obs st ~slot with
         | Store.Value s -> ( try Obs.Snapshot.absorb s with Failure _ -> ())
         | Store.Missing | Store.Corrupt -> ());
         Store.remove_obs st ~slot)
       (Store.obs_slots st);
     (* Collect what the workers delivered, then recompute anything a
        crashed worker never wrote — unless this run is itself the
        faulted one, where missing shards are the point. *)
     Array.iter
       (fun i ->
         match Store.read_block st ~index:(Shard.index plan.(i)) with
         | Store.Value v when Array.length v = Shard.count plan.(i) ->
             blocks.(i) <- Some v;
             computed.(i) <- true
         | _ -> ())
       pending_arr;
     if fault_after = None then
       (* the parent's recompute fallback honors [should_stop] too: a
          signal between shards leaves the rest for the next resume *)
       Array.iter
         (fun i ->
           if Option.is_none blocks.(i) && not (should_stop ()) then begin
             let v = compute_shard gen fam plan.(i) in
             Store.write_block st ~index:(Shard.index plan.(i)) v;
             blocks.(i) <- Some v;
             computed.(i) <- true
           end)
         pending_arr
   end);
  let ncompleted = Array.fold_left (fun a c -> if c then a + 1 else a) 0 computed in
  let nrecomputed =
    let n = ref 0 in
    Array.iteri (fun i c -> if c && was_corrupt.(i) then incr n) computed;
    !n
  in
  Obs.incr c_completed ncompleted;
  Obs.incr c_resumed !resumed;
  Obs.incr c_recomputed nrecomputed;
  Obs.incr c_corrupt !corrupt;
  if Array.exists Option.is_none blocks then raise (Interrupted ncompleted);
  (match store with
  | Some st when procs = 1 && ncompleted > 0 ->
      Store.write_snapshot st ~slot:0 (Cache.snapshot ())
  | _ -> ());
  let verdicts = Array.make total false in
  Array.iteri
    (fun i s ->
      match blocks.(i) with
      | Some v -> Array.blit v 0 verdicts (Shard.lo s) (Array.length v)
      | None -> assert false)
    plan;
  let failures = ref 0 in
  for p = 0 to total - 1 do
    let x, y = gen p in
    if verdicts.(p) <> fam.Framework.f x y then incr failures
  done;
  {
    verdicts;
    failures = !failures;
    shards_total = nsh;
    shards_completed = ncompleted;
    shards_resumed = !resumed;
    shards_recomputed = nrecomputed;
    artifacts_corrupt = !corrupt;
    tables_restored = !restored;
  }

let oracle ?pool fam ~mode =
  match mode with
  | Shard.Exhaustive -> Framework.exhaustive_verdicts ?pool fam
  | Shard.Sampled { seed; samples } ->
      Framework.sampled_verdicts ?pool ~seed ~samples fam

let digest verdicts =
  Digest.to_hex
    (Digest.string
       (String.init (Array.length verdicts) (fun i ->
            if verdicts.(i) then '1' else '0')))
