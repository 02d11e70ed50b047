(* The bench gate: two BENCH_*.json files must hold the same obs
   counters.  Only each file's "obs" section is read: one report per
   bench entry, whose counters (solver nodes, cache builds, bits
   charged, ...) are pure functions of the workload and identical under
   every CH_JOBS width, so they are compared exactly.  The first-class
   fields are left alone: wall times are single-shot reports (perfbench
   owns timing), and cache_hits moves with the pool width. *)

open Cmdliner
module Jsonx = Ch_json.Jsonx

exception Bad of string

(* [(entry, [(counter, value)])] from [file]'s obs section *)
let load file =
  let bad fmt = Printf.ksprintf (fun r -> raise (Bad (file ^ ": " ^ r))) fmt in
  let ( let* ) o f =
    match o with Some v -> f v | None -> bad "malformed obs entry"
  in
  let text =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error msg ->
      (* a failed open names the file, a failed read ("Is a directory")
         does not *)
      if String.starts_with ~prefix:(file ^ ": ") msg then raise (Bad msg)
      else bad "%s" msg
  in
  let doc =
    match Jsonx.parse text with Ok j -> j | Error e -> bad "not JSON: %s" e
  in
  let counter c =
    let* name = Option.bind (Jsonx.mem "name" c) Jsonx.as_str in
    let* value = Option.bind (Jsonx.mem "value" c) Jsonx.as_int in
    (name, value)
  in
  let entry acc e =
    let* name = Option.bind (Jsonx.mem "family" e) Jsonx.as_str in
    let* counters =
      Option.bind (Jsonx.mem "report" e) (fun r ->
          Option.bind (Jsonx.mem "counters" r) Jsonx.as_arr)
    in
    if List.mem_assoc name acc then bad "entry %s appears twice" name;
    (name, List.map counter counters) :: acc
  in
  match Option.bind (Jsonx.mem "obs" doc) Jsonx.as_arr with
  | None | Some [] -> bad "no obs counters"
  | Some entries -> List.fold_left entry [] entries

(* the keys of two association lists, sorted, with each side's binding *)
let zip olds news =
  List.sort_uniq compare (List.map fst olds @ List.map fst news)
  |> List.map (fun k -> (k, List.assoc_opt k olds, List.assoc_opt k news))

let run old_file new_file =
  match
    let olds = load old_file in
    (olds, load new_file)
  with
  | exception Bad msg ->
      prerr_endline msg;
      1
  | olds, news ->
      (* the side that holds a key the other lacks, from its OLD binding *)
      let only side =
        "only in " ^ if Option.is_none side then new_file else old_file
      in
      let diffs =
        List.concat_map
          (fun (entry, o, n) ->
            match (o, n) with
            | Some o, Some n ->
                List.filter_map
                  (fun (c, a, b) ->
                    match (a, b) with
                    | Some a, Some b when a = b -> None
                    | Some a, Some b ->
                        Some (Printf.sprintf "%s: %s %d -> %d" entry c a b)
                    | _ -> Some (Printf.sprintf "%s: %s %s" entry c (only a)))
                  (zip o n)
            | o, _ -> [ Printf.sprintf "%s: %s" entry (only o) ])
          (zip olds news)
      in
      let n = List.length diffs in
      List.iter print_endline diffs;
      Printf.printf "bench-diff: %d entries, %d counters, %d difference%s\n"
        (List.length news)
        (List.fold_left (fun acc (_, cs) -> acc + List.length cs) 0 news)
        n
        (if n = 1 then "" else "s");
      if n = 0 then 0 else 1

let cmd =
  let file n docv = Arg.(required & pos n (some string) None & info [] ~docv) in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "The bench gate: exit 1 unless $(i,OLD) and $(i,NEW) hold the same \
          obs entries with the same counters at the same values, printing \
          one line per difference.")
    Term.(const run $ file 0 "OLD" $ file 1 "NEW")
