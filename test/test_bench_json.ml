(* Schema regression and bench gate for the --json bench artifact: run
   a tiny smoke experiment in a temp directory, parse the
   BENCH_<ts>.json it writes, and look up the entries and fields a
   reader of the file relies on, by section and entry name, including
   the cache counters and the incremental entries, and require a
   non-empty obs section whose every entry carries an enabled report.
   Then require `hardness bench-diff` to find its obs counters equal to
   the committed baseline (test/bench_baseline.json), and to flag a
   copy with one counter or entry changed.  Then cross-check it against
   the `hardness list --json` catalog: the catalog's ids must be unique
   with non-empty paper refs, and every verify/reduction/sweep bench
   entry must name a registered family.  Last, every input the CLI
   cannot run (a bad k, a negative pair count, a missing, unreadable or
   malformed file, a count below 1) must fail with one stderr line and
   exit 1, as must an unknown bench experiment id. *)

module Jsonx = Ch_json.Jsonx

(* a failure prints its message as it is, output excerpts included *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 1)
    fmt

let read_file file = In_channel.with_open_bin file In_channel.input_all

let parse_file file =
  match Jsonx.parse (read_file file) with
  | Ok j -> j
  | Error e -> fail "%s is not JSON: %s" file e

let field name j =
  match Jsonx.mem name j with
  | Some v -> v
  | None -> fail "missing %S in %s" name (Jsonx.to_string j)

let get conv name j =
  match conv (field name j) with
  | Some v -> v
  | None -> fail "%S has the wrong type in %s" name (Jsonx.to_string j)

let arr = get Jsonx.as_arr
let str = get Jsonx.as_str
let has_fields j names = List.iter (fun n -> ignore (field n j)) names

(* the entry of [section] whose [key] field is [name] *)
let entry ?(key = "family") doc section name =
  match List.find_opt (fun e -> str key e = name) (arr section doc) with
  | Some e -> e
  | None -> fail "section %S has no entry %s=%S" section key name

let () =
  let exe = Filename.concat (Sys.getcwd ()) Sys.argv.(1) in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bench_json_%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  (* an unknown experiment id is refused before anything runs: one
     stderr line, exit 1, no BENCH file *)
  let rc =
    Sys.command
      (Printf.sprintf "cd %s && %s bech --json --smoke > /dev/null 2> err.txt"
         (Filename.quote dir) (Filename.quote exe))
  in
  let err = read_file (Filename.concat dir "err.txt") in
  if rc <> 1 || List.length (String.split_on_char '\n' (String.trim err)) <> 1
  then fail "bench bech exited %d, expected 1 with one stderr line:\n%s" rc err;
  if Array.exists (String.starts_with ~prefix:"BENCH_") (Sys.readdir dir) then
    fail "bench bech wrote a BENCH file";
  let cmd =
    Printf.sprintf "cd %s && %s e17 --json --smoke > log.txt 2>&1"
      (Filename.quote dir) (Filename.quote exe)
  in
  let rc = Sys.command cmd in
  if rc <> 0 then fail "bench exited with %d" rc;
  let bench_file =
    match
      List.filter
        (fun f ->
          String.starts_with ~prefix:"BENCH_" f
          && Filename.check_suffix f ".json")
        (Array.to_list (Sys.readdir dir))
    with
    | [ f ] -> Filename.concat dir f
    | l -> fail "expected 1 BENCH_*.json, found %d" (List.length l)
  in
  let doc = parse_file bench_file in
  has_fields doc [ "timestamp"; "jobs" ];
  has_fields (entry ~key:"name" doc "experiments" "e17") [ "wall_s" ];
  (* solver_nodes/solver_pruned: first-class search-effort totals,
     folded from the obs counters *)
  List.iter
    (fun name ->
      has_fields (entry doc "verify" name)
        [ "pairs"; "wall_s"; "pairs_per_s"; "wall_s_jobs1"; "speedup_vs_jobs1";
          "cache_hits"; "cache_misses"; "solver_nodes"; "solver_pruned" ])
    [ "mds-k2-exhaustive"; "mds-k2-exhaustive-inc"; "steiner-k2-exhaustive";
      "hampath-k2-exhaustive"; "steiner-k2-exhaustive-inc";
      "maxcut-k2-exhaustive-inc"; "hampath-k2-exhaustive-inc" ];
  (* --smoke still runs these two scratch sweeps, so their -inc entries
     are differenced pair by pair *)
  List.iter
    (fun name ->
      has_fields (entry doc "verify" name)
        [ "speedup_vs_scratch"; "differential_ok" ])
    [ "steiner-k2-exhaustive-inc"; "hampath-k2-exhaustive-inc" ];
  (* the reduction section, with the directed and multiparty entries and
     two whose reduction is derived from a declared objective *)
  List.iter
    (fun (name, parties) ->
      let e = entry doc "reduction" name in
      has_fields e
        [ "pairs_skipped"; "bits_per_round"; "cc_bits"; "lb_rounds";
          "transcript_differential_ok"; "decisions_ok"; "within_budget" ];
      if get Jsonx.as_int "parties" e <> parties then
        fail "%s: expected parties %d" name parties)
    [ ("mds-k2-reduction", 2); ("maxis-k2-reduction", 2);
      ("maxcut-k2-reduction", 2); ("hampath-k2-reduction", 2);
      ("bitgadget-k4-reduction", 4); ("mvc-k2-reduction", 2);
      ("hamcycle-k2-reduction", 2) ];
  (* the sharded sweep-engine section *)
  List.iter
    (fun name ->
      has_fields (entry doc "sweep" name)
        [ "shards_completed"; "shards_resumed"; "shards_recomputed";
          "artifacts_corrupt" ])
    [ "mds-k2-sweep-x4"; "mds-k2-sweep-resume4" ];
  (* the serve-daemon section: cold vs warm over a localhost socket *)
  has_fields
    (entry ~key:"name" doc "serve" "serve-nwsteiner-k2-x")
    [ "cold_s"; "warm_s"; "warm_speedup"; "warm_hit"; "digest_ok" ];
  (* every differential, decision, budget and warm-hit flag of every
     entry is true *)
  List.iter
    (fun section ->
      List.iter
        (function
          | Jsonx.Obj fields as e ->
              List.iter
                (fun (k, v) ->
                  if
                    (String.ends_with ~suffix:"_ok" k
                    || k = "within_budget" || k = "warm_hit")
                    && v <> Jsonx.Bool true
                  then fail "%s: %s is not true in %s" section k
                      (Jsonx.to_string e))
                fields
          | _ -> fail "%s holds a non-object entry" section)
        (arr section doc))
    [ "verify"; "reduction"; "sweep"; "serve" ];
  (* the telemetry section: one report per bench entry, enabled by
     default under --json, whose counters show the entry's own work *)
  let enabled_report e =
    let r = field "report" e in
    if field "enabled" r <> Jsonx.Bool true then
      fail "obs report of %s is not enabled" (str "family" e);
    r
  in
  if arr "obs" doc = [] then fail "the obs section is empty";
  List.iter (fun e -> ignore (enabled_report e)) (arr "obs" doc);
  let report name =
    let r = enabled_report (entry doc "obs" name) in
    has_fields r [ "counters"; "spans"; "histograms" ];
    r
  in
  List.iter
    (fun (name, counters) ->
      let cs = arr "counters" (report name) in
      List.iter
        (fun c ->
          match List.find_opt (fun o -> str "name" o = c) cs with
          | Some o when get Jsonx.as_int "value" o > 0 -> ()
          | _ -> fail "%s: counter %s is missing or zero" name c)
        counters)
    [ ("mds-k2-exhaustive-inc",
       [ "cache.domset.queries"; "solver.domset.nodes" ]);
      ("mds-k2-reduction", [ "reduction.rounds"; "congest.bits" ]);
      ("mds-k2-sweep-x4", [ "sweep.shards.completed" ]);
      ("serve-nwsteiner-k2-x", [ "serve.requests" ]) ];
  let rec has_span name sp =
    has_fields sp [ "count"; "total_ns" ];
    str "name" sp = name || List.exists (has_span name) (arr "children" sp)
  in
  if
    not
      (List.exists (has_span "core_build")
         (arr "spans" (report "mds-k2-exhaustive-inc")))
  then fail "mds-k2-exhaustive-inc: no core_build span";
  (* the bench gate: this run's obs counters are the baseline's *)
  let hardness = Filename.concat (Sys.getcwd ()) Sys.argv.(2) in
  let baseline = Filename.concat (Sys.getcwd ()) Sys.argv.(3) in
  let bench_diff old_file new_file =
    let rc =
      Sys.command
        (Printf.sprintf "cd %s && %s bench-diff %s %s > diff.txt 2>&1"
           (Filename.quote dir) (Filename.quote hardness)
           (Filename.quote old_file) (Filename.quote new_file))
    in
    (rc, read_file (Filename.concat dir "diff.txt"))
  in
  (match bench_diff baseline bench_file with
  | 0, _ -> ()
  | rc, out ->
      (* this run's directory may not outlive the test runner, so the
         command runs the bench afresh: its counters are this run's *)
      fail
        "bench-diff test/bench_baseline.json %s exited %d:\n%s\n\
         If the change is meant to move these counters, re-record the \
         baseline from the repository root:\n  tmp=$(mktemp -d) && (cd \
         \"$tmp\" && %s e17 --json --smoke > /dev/null) && cp \
         \"$tmp\"/BENCH_*.json test/bench_baseline.json"
        bench_file rc out (Filename.quote exe));
  (* copies of this run's file with one counter changed, one counter
     removed, or one entry removed each fail it, naming what moved *)
  let set name v = function
    | Jsonx.Obj fields ->
        Jsonx.Obj
          (List.map (fun (k, x) -> (k, if k = name then v else x)) fields)
    | j -> j
  in
  let inc = "mds-k2-exhaustive-inc" and nodes = "solver.domset.nodes" in
  let with_obs f = set "obs" (Jsonx.Arr (f (arr "obs" doc))) doc in
  let with_counters f =
    with_obs
      (List.map (fun e ->
           if str "family" e <> inc then e
           else
             let r = field "report" e in
             let counters = Jsonx.Arr (f (arr "counters" r)) in
             set "report" (set "counters" counters r) e))
  in
  let n =
    get Jsonx.as_int "value"
      (List.find (fun c -> str "name" c = nodes)
         (arr "counters" (field "report" (entry doc "obs" inc))))
  in
  List.iter
    (fun (what, copy, want) ->
      let file = Filename.concat dir "copy.json" in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Jsonx.to_document copy));
      match bench_diff bench_file file with
      | 1, out when List.mem want (String.split_on_char '\n' out) -> ()
      | rc, out ->
          fail "bench-diff with one %s exited %d without the line %S:\n%s"
            what rc want out)
    [ ( "counter changed",
        with_counters
          (List.map (fun c ->
               if str "name" c = nodes then set "value" (Jsonx.Int (n + 1)) c
               else c)),
        Printf.sprintf "%s: %s %d -> %d" inc nodes n (n + 1) );
      ( "counter removed",
        with_counters
          (List.filter (fun c -> str "name" c <> "cache.domset.queries")),
        Printf.sprintf "%s: cache.domset.queries only in %s" inc bench_file );
      ( "entry removed",
        with_obs (List.filter (fun e -> str "family" e <> "mds-k2-sweep-x4")),
        Printf.sprintf "mds-k2-sweep-x4: only in %s" bench_file ) ];
  (* the registry catalog round-trip: `hardness list --json` *)
  let rc =
    Sys.command
      (Printf.sprintf "cd %s && %s list --json > catalog.json 2>> log.txt"
         (Filename.quote dir) (Filename.quote hardness))
  in
  if rc <> 0 then fail "hardness list --json exited with %d" rc;
  let families =
    arr "families" (parse_file (Filename.concat dir "catalog.json"))
  in
  let ids = List.map (str "id") families in
  if ids = [] then fail "catalog lists no families";
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    fail "catalog ids are not unique";
  List.iter
    (fun f -> if str "paper_ref" f = "" then fail "catalog: empty paper_ref")
    families;
  (* every bench verify/reduction/sweep entry names a registered family:
     the entry names are "<id>-k<k>-<workload>" *)
  let family_of_entry name =
    let rec strip i =
      if i < 0 then name
      else if
        String.sub name i 2 = "-k" && name.[i + 2] >= '0' && name.[i + 2] <= '9'
      then String.sub name 0 i
      else strip (i - 1)
    in
    strip (String.length name - 3)
  in
  List.iter
    (fun section ->
      List.iter
        (fun e ->
          let name = str "family" e in
          if not (List.mem (family_of_entry name) ids) then
            fail "bench entry %S names unregistered family %S" name
              (family_of_entry name))
        (arr section doc))
    [ "verify"; "reduction"; "sweep" ];
  (* an engine that cannot run at this k, or a pair count the pair space
     rejects, fails with one stderr line starting [prefix] and exit 1 —
     not an uncaught exception (exit 125) nor a silent empty run *)
  let fails_with_one_line args ~prefix =
    let rc =
      Sys.command
        (Printf.sprintf "cd %s && %s %s > /dev/null 2> err.txt"
           (Filename.quote dir) (Filename.quote hardness) args)
    in
    let err = read_file (Filename.concat dir "err.txt") in
    if rc <> 1 then fail "hardness %s exited with %d:\n%s" args rc err;
    match List.filter (( <> ) "") (String.split_on_char '\n' err) with
    | [ line ] when String.starts_with ~prefix line -> ()
    | _ ->
        fail "hardness %s: expected one stderr line %S...:\n%s" args prefix err
  in
  List.iter
    (fun (args, family, k) ->
      fails_with_one_line args
        ~prefix:(Printf.sprintf "family %S at k=%d: " family k))
    [ ("verify steiner -k 4 --incremental", "steiner", 4);
      ("verify hampath -k 4 --incremental", "hampath", 4);
      ("profile steiner -k 4", "steiner", 4); ("list -k 3", "mds", 3);
      ("verify mds --samples=-5", "mds", 2);
      ("verify mds --samples=-5 --incremental", "mds", 2);
      ("sweep mds -k 3", "mds", 3);
      ("sweep mds --sample=-1", "mds", 2);
      ("replay mds log.txt -k 3", "mds", 3);
      ("replay mds log.txt --pairs=-3", "mds", 2);
      ("reduction mds -k 3", "mds", 3);
      ("reduction mds --pairs=-3", "mds", 2) ];
  (* a file that cannot be read or written, or a bench file without
     obs counters, is one "FILE: reason" line and exit 1 *)
  Out_channel.with_open_bin (Filename.concat dir "noobs.json") (fun oc ->
      output_string oc "{\"obs\": []}\n");
  Unix.mkdir (Filename.concat dir "adir") 0o755;
  List.iter
    (fun (args, path) -> fails_with_one_line args ~prefix:(path ^ ": "))
    [ ("bench-diff missing.json log.txt", "missing.json");
      ("bench-diff log.txt log.txt", "log.txt");
      ("bench-diff noobs.json noobs.json", "noobs.json");
      ("replay mds missing.jsonl", "missing.jsonl");
      ("profile --from missing.jsonl", "missing.jsonl");
      ("verify mds --profile --obs-out nodir/o.jsonl", "nodir/o.jsonl");
      ("sweep mds --profile --obs-out nodir/o.jsonl", "nodir/o.jsonl");
      ("profile mds --obs-out nodir/o.jsonl", "nodir/o.jsonl");
      ("reduction mds --trace nodir/t.jsonl", "nodir/t.jsonl");
      ("client ping --socket S --obs-out nodir/c.jsonl", "nodir/c.jsonl");
      ("serve --socket S --obs-out nodir/d.jsonl", "nodir/d.jsonl");
      ("sweep mds --resume log.txt/store", "log.txt/store");
      ("profile --from adir", "adir"); ("replay mds adir", "adir");
      ("bench-diff adir log.txt", "adir") ];
  (* a count that must be positive is refused before the daemon starts or
     the client connects *)
  List.iter
    (fun (args, prefix) -> fails_with_one_line args ~prefix)
    [ ("serve --socket S --workers 0", "serve: --workers must be at least 1");
      ("serve --socket S --queue-depth 0",
       "serve: --queue-depth must be at least 1");
      ("client verify mds --repeat 0 --socket S",
       "client: --repeat must be at least 1");
      ("client verify mds --bench 0 --socket S",
       "client: --bench must be at least 1") ];
  (* cleanup *)
  Unix.rmdir (Filename.concat dir "adir");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  print_endline "bench json schema ok"
