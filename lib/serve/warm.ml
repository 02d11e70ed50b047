module Framework = Ch_core.Framework
module Shard = Ch_sweep.Shard
module Sweep = Ch_sweep.Sweep
module Store = Ch_sweep.Store
module Cache = Ch_solvers.Cache
module Obs = Ch_obs.Obs

let c_seeded = Obs.counter "serve.warm.tables_seeded"
let c_hits = Obs.counter "serve.warm.hits"
let c_block_hits = Obs.counter "serve.warm.block_hits"

type cached = {
  c_verdicts : bool array;
  c_failures : int;
  c_sided : bool;
  c_digest : string;
}

type t = {
  store_dir : string option;
  mutable tables_seeded : int;
  table : (string, cached) Hashtbl.t;
  running : (string, unit) Hashtbl.t;  (* claimed keys *)
  lock : Mutex.t;
  released : Condition.t;
}

(* The store pins every daemon-written artifact under one plan key per
   verify plan (shards = 1), plus a "serve" directory for the shutdown
   memo snapshot. *)
let serve_key = "serve"

let seed_tables ~dir =
  let restored = ref 0 in
  let keys = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort compare keys;
  Array.iter
    (fun key ->
      if Sys.is_directory (Filename.concat dir key) then begin
        match Store.read_snapshot (Store.open_ ~dir ~key) with
        | Store.Value snap -> (
            try restored := !restored + Cache.restore snap
            with Failure _ -> ())
        | Store.Missing | Store.Corrupt -> ()
      end)
    keys;
  !restored

let create ~store_dir =
  let tables_seeded =
    match store_dir with
    | Some dir when Sys.file_exists dir -> seed_tables ~dir
    | _ -> 0
  in
  Obs.incr c_seeded tables_seeded;
  {
    store_dir;
    tables_seeded;
    table = Hashtbl.create 64;
    running = Hashtbl.create 8;
    lock = Mutex.create ();
    released = Condition.create ();
  }

let store_dir t = t.store_dir
let tables_seeded t = t.tables_seeded

let entries t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

let key fam ~mode = Sweep.store_key fam ~mode ~shards:1

let claim t ~key =
  Mutex.lock t.lock;
  let rec go () =
    match Hashtbl.find_opt t.table key with
    | Some _ as hit -> hit
    | None when Hashtbl.mem t.running key ->
        Condition.wait t.released t.lock;
        go ()
    | None ->
        Hashtbl.replace t.running key ();
        None
  in
  let r = go () in
  Mutex.unlock t.lock;
  if r <> None then Obs.bump c_hits;
  r

let release t ~key =
  Mutex.lock t.lock;
  Hashtbl.remove t.running key;
  Condition.broadcast t.released;
  Mutex.unlock t.lock

let find_block t ~key ~total =
  match t.store_dir with
  | None -> None
  | Some dir -> (
      match Option.map (Store.read_block ~index:0) (Store.find ~dir ~key) with
      | Some (Store.Value v) when Array.length v = total ->
          Obs.bump c_block_hits;
          Some v
      | _ -> None)

let remember ?(write = true) t ~key cached =
  Mutex.lock t.lock;
  if not (Hashtbl.mem t.table key) then Hashtbl.replace t.table key cached;
  Mutex.unlock t.lock;
  if write then
    match t.store_dir with
    | None -> ()
    | Some dir ->
        let st = Store.open_ ~dir ~key in
        Store.write_block st ~index:0 cached.c_verdicts

let persist t =
  match t.store_dir with
  | None -> ()
  | Some dir ->
      let st = Store.open_ ~dir ~key:serve_key in
      Store.write_snapshot st (Cache.snapshot ())
