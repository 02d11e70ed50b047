module Jsonx = Ch_json.Jsonx
module Framework = Ch_core.Framework
module Pairs = Ch_core.Pairs
module Registry = Ch_core.Registry
module Families = Ch_lbgraphs.Families
module Bits = Ch_cc.Bits
module Bound = Ch_reduction.Bound
module Simulate = Ch_reduction.Simulate
module Shard = Ch_sweep.Shard
module Sweep = Ch_sweep.Sweep
module Store = Ch_sweep.Store
module Obs = Ch_obs.Obs

(* control flow inside an op: an error with its code *)
exception Err of Protocol.error_code * string

(* a family lacks what the op needs: name the families that have it *)
let unsupported msg specs =
  Err
    ( Protocol.Unsupported,
      Printf.sprintf "%s; families with one: %s" msg
        (String.concat ", " (List.map (fun s -> s.Registry.id) specs)) )

let no_incremental family =
  unsupported
    (Printf.sprintf "family %S has no incremental engine" family)
    (Registry.filter ~incremental:true (Families.catalog ()))

let no_reduction family =
  unsupported
    (Printf.sprintf "family %S has no reduction algorithm" family)
    (Registry.filter ~reduction:true (Families.catalog ()))

let with_family family ~k f =
  let cat = Families.catalog () in
  match Registry.find cat family with
  | None ->
      Error (Protocol.Unknown_family, Registry.unknown_id_message cat family)
  | Some spec -> (
      match f spec with
      | v -> Ok v
      | exception Err (code, msg) -> Error (code, msg)
      | exception Invalid_argument msg ->
          let msg = Printf.sprintf "family %S at k=%d: %s" family k msg in
          Error (Protocol.Bad_request, msg))

(* ---------------------------------------------------------------- verify *)

(* Derive the cached record from a raw verdict stream: failure count
   against f, the Definition 1.1 sidedness spot-check and the stream
   digest. *)
let derive fam ~mode verdicts =
  {
    Warm.c_verdicts = verdicts;
    c_failures = Framework.failures fam mode verdicts;
    c_sided = Framework.check_sidedness ~seed:3 ~samples:8 fam;
    c_digest = Sweep.digest verdicts;
  }

let verify_body spec fam ~k ~mode ~engine_used ~source
    (cached : Warm.cached) =
  (* per-family throughput counter; every verify tier lands here *)
  Obs.incr
    (Obs.counter ("serve.family." ^ spec.Registry.id ^ ".pairs"))
    (Array.length cached.Warm.c_verdicts);
  Jsonx.Obj
    [
      ("family", Jsonx.Str fam.Framework.name);
      ("k", Jsonx.Int k);
      ("engine", Jsonx.Str engine_used);
      ("mode", Protocol.vmode_json mode);
      ("pairs", Jsonx.Int (Array.length cached.Warm.c_verdicts));
      ("failures", Jsonx.Int cached.Warm.c_failures);
      ("sided", Jsonx.Bool cached.Warm.c_sided);
      ("digest", Jsonx.Str cached.Warm.c_digest);
      ( "lb_rounds",
        Jsonx.Float
          (Framework.lower_bound_rounds ~input_bits:fam.Framework.input_bits
             ~cut:(Framework.cut_size fam) ~n:fam.Framework.nvertices) );
      ("source", Jsonx.Str source);
    ]

(* The warm tiers first (memory, then the store's block), else a cold
   engine run, remembered and written through to the store.  Past a
   memory miss this request holds the plan's key, so an identical
   request waits for its answer instead of running the engine again. *)
let verify warm ~k ~mode ~engine spec =
  let fam = spec.Registry.scratch k in
  let key = Warm.key fam ~mode in
  let body = verify_body spec fam ~k ~mode in
  match Warm.claim warm ~key with
  | Some cached -> (true, body ~engine_used:"cache" ~source:"memory" cached)
  | None -> (
      Fun.protect ~finally:(fun () -> Warm.release warm ~key) @@ fun () ->
      let total = Pairs.total ~k:fam.Framework.input_bits mode in
      match Warm.find_block warm ~key ~total with
      | Some verdicts ->
          let cached = derive fam ~mode verdicts in
          Warm.remember ~write:false warm ~key cached;
          (true, body ~engine_used:"cache" ~source:"store" cached)
      | None ->
          let engine_used, engine =
            match ((engine : Protocol.engine), spec.Registry.incremental)
            with
            | Incremental, None -> raise (no_incremental spec.Registry.id)
            | (Incremental | Auto), Some inc ->
                ("incremental", Framework.Incremental (inc k))
            | Scratch, _ | Auto, None -> ("scratch", Framework.Scratch fam)
          in
          let verdicts, _ = Framework.verdicts engine mode in
          let cached = derive fam ~mode verdicts in
          Warm.remember warm ~key cached;
          (false, body ~engine_used ~source:"computed" cached))

(* ------------------------------------------------------------- reduction *)

(* The sweep's report, then one row per swept pair: its inputs, the
   charged transcript, the decision and whether the oracle agreed. *)
let reduction ?trace spec ~k ~exhaustive ~pairs ~seed =
  match
    Bound.sweep_registry ?trace ~seed ~exhaustive ~samples:pairs spec ~k
  with
  | None -> raise (no_reduction spec.Registry.id)
  | Some (rows, rep, skipped) -> (
      let row (r : Bound.row) =
        let t = r.Bound.bt in
        Jsonx.Obj
          [
            ("x", Jsonx.Str (Bits.to_string r.Bound.bx));
            ("y", Jsonx.Str (Bits.to_string r.Bound.by));
            ("rounds", Jsonx.Int t.Simulate.rounds);
            ("cut_bits", Jsonx.Int t.Simulate.cut_bits);
            ("cut_messages", Jsonx.Int t.Simulate.cut_messages);
            ("correct", Jsonx.Bool t.Simulate.correct);
            ("oracle_ok", Jsonx.Bool r.Bound.bmatch);
          ]
      in
      match
        Bound.report_json
          ~id:
            [
              ("family", Jsonx.Str rep.Bound.rep_name);
              ("k", Jsonx.Int k);
              ("skipped", Jsonx.Int skipped);
            ]
          rep
      with
      | Jsonx.Obj fields ->
          Jsonx.Obj (fields @ [ ("rows", Jsonx.Arr (List.map row rows)) ])
      | report -> report)

(* ------------------------------------------------------------ sweep status *)

(* What the store holds for one sweep plan, read without creating its
   directory: a plan that was never run reports zeros. *)
let sweep_status warm ~k ~shards ~mode spec =
  let fam = spec.Registry.scratch k in
  match Warm.store_dir warm with
  | None -> Jsonx.Obj [ ("store", Jsonx.Bool false) ]
  | Some dir ->
      let key = Sweep.store_key fam ~mode ~shards in
      let plan =
        Shard.partition ~total:(Pairs.total ~k:fam.Framework.input_bits mode)
          ~shards
      in
      let present = ref 0 and corrupt = ref 0 and snapshots = ref 0 in
      Option.iter
        (fun st ->
          Array.iter
            (fun s ->
              match Store.read_block st ~index:(Shard.index s) with
              | Store.Value v when Array.length v = Shard.count s ->
                  incr present
              | Store.Value _ | Store.Corrupt -> incr corrupt
              | Store.Missing -> ())
            plan;
          if Store.read_snapshot st <> Store.Missing then incr snapshots)
        (Store.find ~dir ~key);
      Jsonx.Obj
        [
          ("store", Jsonx.Bool true);
          ("key", Jsonx.Str key);
          ("shards", Jsonx.Int (Array.length plan));
          ("present", Jsonx.Int !present);
          ("corrupt", Jsonx.Int !corrupt);
          ("snapshots", Jsonx.Int !snapshots);
        ]

(* ------------------------------------------------------------------ exec *)

let exec ?trace warm op =
  let cold f spec = (false, f spec) in
  match (op : Protocol.op) with
  | Catalog -> Ok (false, Registry.to_json (Families.catalog ()))
  | Verify { family; k; vmode; engine } ->
      with_family family ~k (verify warm ~k ~mode:vmode ~engine)
  | Reduction { family; k; exhaustive; pairs; seed } ->
      with_family family ~k
        (cold (reduction ?trace ~k ~exhaustive ~pairs ~seed))
  | Sweep_status { family; k; shards; vmode } ->
      with_family family ~k (cold (sweep_status warm ~k ~shards ~mode:vmode))
  | Ping | Stats | Metrics | Health ->
      Error (Protocol.Unsupported, "this op needs a running daemon")
