(* Schema regression for the --json bench artifact: run a tiny smoke
   experiment in a temp directory and check the BENCH_<ts>.json it
   writes carries every field the perf-trajectory tooling reads,
   including the cache counters and the incremental entries.  Then
   cross-check it against the `hardness list --json` catalog dump:
   the catalog's ids must be unique with non-empty paper refs, and
   every verify/reduction bench entry must name a registered family. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* every string value of ["key": "..."] occurrences, in order *)
let string_values ~key body =
  let marker = Printf.sprintf "\"%s\": \"" key in
  let ml = String.length marker and bl = String.length body in
  let rec go i acc =
    if i + ml > bl then List.rev acc
    else if String.sub body i ml = marker then begin
      let start = i + ml in
      let stop = String.index_from body start '"' in
      go stop (String.sub body start (stop - start) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let () =
  let exe = Filename.concat (Sys.getcwd ()) Sys.argv.(1) in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bench_json_%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let cmd =
    Printf.sprintf "cd %s && %s e17 --json --smoke > log.txt 2>&1"
      (Filename.quote dir) (Filename.quote exe)
  in
  let rc = Sys.command cmd in
  if rc <> 0 then failwith (Printf.sprintf "bench exited with %d" rc);
  let json_files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
  in
  let file =
    match json_files with
    | [ f ] -> Filename.concat dir f
    | l -> failwith (Printf.sprintf "expected 1 BENCH_*.json, found %d" (List.length l))
  in
  let ic = open_in file in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  let required =
    [
      "\"timestamp\":";
      "\"jobs\":";
      "\"experiments\":";
      "\"name\": \"e17\"";
      "\"wall_s\":";
      "\"verify\":";
      "\"family\": \"mds-k2-exhaustive\"";
      "\"family\": \"mds-k2-exhaustive-inc\"";
      (* --smoke still runs these two scratch sweeps, so their -inc
         entries are differenced pair by pair *)
      "\"family\": \"steiner-k2-exhaustive\"";
      "\"family\": \"hampath-k2-exhaustive\"";
      "\"family\": \"steiner-k2-exhaustive-inc\"";
      "\"family\": \"maxcut-k2-exhaustive-inc\"";
      "\"family\": \"hampath-k2-exhaustive-inc\"";
      "\"pairs\":";
      "\"pairs_per_s\":";
      "\"wall_s_jobs1\":";
      "\"speedup_vs_jobs1\":";
      "\"cache_hits\":";
      "\"cache_misses\":";
      "\"speedup_vs_scratch\":";
      "\"differential_ok\": true";
      (* first-class search-effort totals, folded from the obs counters *)
      "\"solver_nodes\":";
      "\"solver_pruned\":";
      "\"reduction\":";
      "\"family\": \"mds-k2-reduction\"";
      "\"family\": \"maxis-k2-reduction\"";
      "\"family\": \"maxcut-k2-reduction\"";
      (* the directed and multiparty reduction entries *)
      "\"family\": \"hampath-k2-reduction\"";
      "\"family\": \"bitgadget-k4-reduction\"";
      "\"parties\": 2";
      "\"parties\": 4";
      "\"pairs_skipped\":";
      "\"bits_per_round\":";
      "\"cc_bits\":";
      "\"lb_rounds\":";
      "\"transcript_differential_ok\": true";
      "\"decisions_ok\": true";
      "\"within_budget\": true";
      (* the sharded sweep-engine section *)
      "\"sweep\":";
      "\"family\": \"mds-k2-sweep-x4\"";
      "\"family\": \"mds-k2-sweep-resume4\"";
      "\"shards_completed\":";
      "\"shards_resumed\":";
      "\"shards_recomputed\":";
      "\"artifacts_corrupt\":";
      "\"name\": \"sweep.shards.completed\"";
      (* the serve-daemon section: cold vs warm over a localhost socket *)
      "\"serve\":";
      "\"name\": \"serve-nwsteiner-k2-x\"";
      "\"cold_s\":";
      "\"warm_s\":";
      "\"warm_speedup\":";
      "\"warm_hit\": true";
      "\"digest_ok\": true";
      "\"name\": \"serve.requests\"";
      (* the telemetry section: one report per bench entry, enabled by
         default under --json *)
      "\"obs\":";
      "\"enabled\": true";
      "\"counters\":";
      "\"spans\":";
      "\"histograms\":";
      "\"name\": \"cache.domset.queries\"";
      "\"name\": \"solver.domset.nodes\"";
      "\"name\": \"reduction.rounds\"";
      "\"name\": \"congest.bits\"";
      "\"name\": \"core_build\"";
      "\"total_ns\":";
    ]
  in
  List.iter
    (fun needle ->
      if not (contains ~needle body) then
        failwith (Printf.sprintf "missing %s in %s:\n%s" needle file body))
    required;
  if contains ~needle:"\"differential_ok\": false" body then
    failwith "differential mismatch reported in bench JSON";
  if contains ~needle:"\"transcript_differential_ok\": false" body then
    failwith "reduction transcript mismatch reported in bench JSON";
  (* the registry catalog round-trip: `hardness list --json` *)
  let hardness = Filename.concat (Sys.getcwd ()) Sys.argv.(2) in
  let cat_cmd =
    Printf.sprintf "cd %s && %s list --json > catalog.json 2>> log.txt"
      (Filename.quote dir) (Filename.quote hardness)
  in
  let rc = Sys.command cat_cmd in
  if rc <> 0 then failwith (Printf.sprintf "hardness list --json exited with %d" rc);
  let ic = open_in (Filename.concat dir "catalog.json") in
  let cat = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if not (contains ~needle:"\"families\":" cat) then
    failwith "catalog missing \"families\"";
  let ids = string_values ~key:"id" cat in
  if ids = [] then failwith "catalog lists no families";
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    failwith "catalog ids are not unique";
  let refs = string_values ~key:"paper_ref" cat in
  if List.length refs <> List.length ids then
    failwith "catalog: paper_ref count differs from id count";
  List.iter (fun r -> if r = "" then failwith "catalog: empty paper_ref") refs;
  (* every bench verify/reduction entry names a registered family: the
     entry names are "<id>-k<k>-exhaustive[-inc]" / "<id>-k<k>-reduction" *)
  let family_of_entry name =
    let rec strip i =
      if i < 0 then name
      else if
        i + 2 <= String.length name
        && String.sub name i 2 = "-k"
        && i + 2 < String.length name
        && name.[i + 2] >= '0'
        && name.[i + 2] <= '9'
      then String.sub name 0 i
      else strip (i - 1)
    in
    strip (String.length name - 2)
  in
  let is_serve_entry name =
    String.length name > 6 && String.sub name 0 6 = "serve-"
  in
  List.iter
    (fun entry ->
      if
        entry <> ""
        && (not (is_serve_entry entry))
        && not (List.mem (family_of_entry entry) ids)
      then
        failwith
          (Printf.sprintf "bench entry %S names unregistered family %S" entry
             (family_of_entry entry)))
    (string_values ~key:"family" body);
  (* an engine that cannot run at this k fails with one stderr line
     naming the family, k and reason, and exit 1 — not an uncaught
     exception (exit 125) *)
  List.iter
    (fun args ->
      let rc =
        Sys.command
          (Printf.sprintf "cd %s && %s %s > /dev/null 2> err.txt"
             (Filename.quote dir) (Filename.quote hardness) args)
      in
      let ic = open_in (Filename.concat dir "err.txt") in
      let err = really_input_string ic (in_channel_length ic) in
      close_in ic;
      if rc <> 1 then
        failwith (Printf.sprintf "hardness %s exited with %d:\n%s" args rc err);
      match List.filter (( <> ) "") (String.split_on_char '\n' err) with
      | [ line ] when contains ~needle:"family \"steiner\" at k=4: " line -> ()
      | _ ->
          failwith
            (Printf.sprintf
               "hardness %s: expected one stderr line naming the family and k:\n%s"
               args err))
    [ "verify steiner -k 4 --incremental"; "profile steiner -k 4" ];
  (* cleanup *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  print_endline "bench json schema ok"
