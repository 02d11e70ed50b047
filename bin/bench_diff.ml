(* Perf-trajectory regression gate over the committed BENCH_*.json
   files.  Two snapshots are compared entry by entry (sections keyed by
   family/name), on the metrics that matter per section: throughput
   (pairs_per_s, relative drop), solver work (solver_nodes, relative
   increase), cache hit rate (absolute drop) and warm-path speedup
   (relative drop).  Anything past the threshold is a regression and the
   command exits non-zero — CI runs it warn-only so a noisy machine
   cannot block a merge, but the trajectory is visible in the log. *)

open Cmdliner
module Jsonx = Ch_json.Jsonx

let fnum o name = Option.bind (Jsonx.mem name o) Jsonx.as_float
let inum o name = Option.bind (Jsonx.mem name o) Jsonx.as_int

type entry = {
  e_key : string;  (* "verify/mds-k2-exhaustive" *)
  e_pairs_per_s : float option;
  e_solver_nodes : int option;
  e_cache_rate : float option;  (* hits / (hits + misses), when queried *)
  e_warm_speedup : float option;
}

(* sections carrying per-entry perf rows, with their id field *)
let sections =
  [ ("verify", "family"); ("reduction", "family"); ("sweep", "family");
    ("serve", "name") ]

let entry_of section o =
  match Option.bind (Jsonx.mem (List.assoc section sections) o) Jsonx.as_str with
  | None -> None
  | Some id ->
      let cache_rate =
        match (inum o "cache_hits", inum o "cache_misses") with
        | Some h, Some m when h + m > 0 ->
            Some (float_of_int h /. float_of_int (h + m))
        | _ -> None
      in
      Some
        {
          e_key = section ^ "/" ^ id;
          e_pairs_per_s = fnum o "pairs_per_s";
          e_solver_nodes = inum o "solver_nodes";
          e_cache_rate = cache_rate;
          e_warm_speedup = fnum o "warm_speedup";
        }

let load file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Jsonx.parse s with
  | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
  | Ok j ->
      let ts = match inum j "timestamp" with Some t -> t | None -> 0 in
      let entries =
        List.concat_map
          (fun (section, _) ->
            match Option.bind (Jsonx.mem section j) Jsonx.as_arr with
            | None -> []
            | Some rows -> List.filter_map (entry_of section) rows)
          sections
      in
      Ok (ts, entries)

(* one regression check: [delta] positive means worse *)
let check ~threshold key metric old_v new_v delta =
  if delta > threshold then
    Some
      (Printf.sprintf "  REGRESSION %s: %s %.4g -> %.4g (%+.1f%%)" key metric
         old_v new_v
         ((new_v -. old_v) /. Float.max 1e-9 (Float.abs old_v) *. 100.))
  else None

let compare_entry ~threshold old_e new_e =
  let key = new_e.e_key in
  let rel_drop o n = (o -. n) /. o in
  List.filter_map Fun.id
    [
      (match (old_e.e_pairs_per_s, new_e.e_pairs_per_s) with
      | Some o, Some n when o > 0. ->
          check ~threshold key "pairs_per_s" o n (rel_drop o n)
      | _ -> None);
      (match (old_e.e_solver_nodes, new_e.e_solver_nodes) with
      | Some o, Some n when o > 0 ->
          let o = float_of_int o and n = float_of_int n in
          check ~threshold key "solver_nodes" o n ((n -. o) /. o)
      | _ -> None);
      (match (old_e.e_cache_rate, new_e.e_cache_rate) with
      | Some o, Some n -> check ~threshold key "cache_hit_rate" o n (o -. n)
      | _ -> None);
      (match (old_e.e_warm_speedup, new_e.e_warm_speedup) with
      | Some o, Some n when o > 0. ->
          check ~threshold key "warm_speedup" o n (rel_drop o n)
      | _ -> None);
    ]

let diff_files ~threshold file_a file_b =
  match (load file_a, load file_b) with
  | Error msg, _ | _, Error msg ->
      Printf.eprintf "bench-diff: %s\n" msg;
      2
  | Ok (_, old_entries), Ok (_, new_entries) ->
      Printf.printf "bench-diff %s -> %s (threshold %.0f%%)\n" file_a file_b
        (threshold *. 100.);
      let compared = ref 0 in
      let regressions =
        List.concat_map
          (fun new_e ->
            match
              List.find_opt (fun o -> o.e_key = new_e.e_key) old_entries
            with
            | None -> []
            | Some old_e ->
                incr compared;
                compare_entry ~threshold old_e new_e)
          new_entries
      in
      List.iter print_endline regressions;
      Printf.printf "%d entries compared, %d regression%s\n" !compared
        (List.length regressions)
        (if List.length regressions = 1 then "" else "s");
      if regressions = [] then 0 else 1

(* --all: every committed snapshot in [dir], ordered by its embedded
   timestamp, diffed pairwise — the full trajectory, not just the tip *)
let diff_all ~threshold dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.map (Filename.concat dir)
  in
  let loaded =
    List.filter_map
      (fun f ->
        match load f with
        | Ok (ts, _) -> Some (ts, f)
        | Error msg ->
            Printf.eprintf "bench-diff: skipping %s\n" msg;
            None)
      files
  in
  let ordered = List.sort compare loaded in
  match ordered with
  | [] | [ _ ] ->
      Printf.eprintf "bench-diff: need at least two BENCH_*.json under %s\n"
        dir;
      2
  | (_, first) :: rest ->
      let code = ref 0 in
      ignore
        (List.fold_left
           (fun prev (_, next) ->
             (match diff_files ~threshold prev next with
             | 0 -> ()
             | c -> code := max !code c);
             next)
           first rest);
      !code

let cmd =
  let run all dir threshold files =
    if threshold <= 0. || threshold >= 1. then begin
      Printf.eprintf "bench-diff: --threshold must be in (0, 1)\n";
      2
    end
    else if all then diff_all ~threshold dir
    else
      match files with
      | [ a; b ] -> diff_files ~threshold a b
      | _ ->
          Printf.eprintf
            "bench-diff: pass exactly two BENCH files, or --all\n";
          2
  in
  let all_arg =
    let doc =
      "Diff every $(b,BENCH_*.json) under $(b,--dir) pairwise in timestamp \
       order instead of two explicit files."
    in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let dir_arg =
    Arg.(
      value & opt string "."
      & info [ "dir" ] ~docv:"DIR" ~doc:"Where $(b,--all) looks for snapshots.")
  in
  let threshold_arg =
    let doc =
      "Regression threshold as a fraction: throughput/speedup may drop and \
       solver nodes grow by at most this ratio, cache hit rate by at most \
       this absolute amount."
    in
    Arg.(value & opt float 0.25 & info [ "threshold" ] ~docv:"T" ~doc)
  in
  let files_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"BENCH.json")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare bench snapshots entry by entry (throughput, solver nodes, \
          cache hit rate, warm speedup) and exit non-zero past the \
          regression threshold — the perf-trajectory gate.")
    Term.(const run $ all_arg $ dir_arg $ threshold_arg $ files_arg)
