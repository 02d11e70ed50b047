(* The benchmark: one run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--tmp DIR] [--min-ops N] [--inject]
              [--setup-only]

   Prints diagnostic lines, then one JSON result as the last line of
   stdout, with the value of each metric the workload measures; run.py
   adds the units and the per-layer zeros from BENCHMARK.json.  Exit 0
   when every check passed, 1 when one failed, 2 on a usage or set-up
   error (without a result).  See README.md.

   An untraced run first spawns [setups] copies of itself with
   --setup-only: each sets the workload up, prints "ready", tears it
   down and exits.  setup_s is the median time from spawning such a
   process to its "ready", so runtime start-up, module initialisation
   and one-time lazies count. *)

module Obs = Ch_obs.Obs
open Perfbench

let setups = 41

let workloads =
  [ W_verify.workload; W_sweep.workload; W_reduction.workload ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tmp DIR] \
     [--min-ops N] [--inject] [--setup-only]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tmp : string;
  min_ops : int;
  inject : bool;
  setup_only : bool;
}

let parse () =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.;
        trace = false;
        tmp = "perfbench/_run";
        min_ops = 1000;
        inject = false;
        setup_only = false;
      }
  in
  let rec go = function
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> a := { !a with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> a := { !a with trace = int_of_string v <> 0 }; go rest
    | "--tmp" :: v :: rest -> a := { !a with tmp = v }; go rest
    | "--min-ops" :: v :: rest -> a := { !a with min_ops = int_of_string v }; go rest
    | "--inject" :: rest -> a := { !a with inject = true }; go rest
    | "--setup-only" :: rest -> a := { !a with setup_only = true }; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !a.seconds <= 0. then usage ();
  !a

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let ns_to_s a b = Int64.to_float (Int64.sub b a) /. 1e9

(* JSON numbers with all their digits; non-finite values cannot be
   written, and a layer without samples reads 0 *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let diag fields = Printf.printf "{\"diag\": %s}\n" (obj fields)

let floats xs = "[" ^ String.concat ", " (Array.to_list (Array.map num xs)) ^ "]"

let loop_diag (inst : Workload.instance) (r : Loop.result) =
  let q xs p = num (Stats.quantile xs p) in
  let raw = Loop.raw_latencies r in
  let sum = Array.fold_left ( +. ) 0. in
  [
    ("cycles", string_of_int r.Loop.cycles);
    ("ops", string_of_int r.Loop.ops);
    ("p99_beyond", string_of_int (Stats.beyond r.Loop.ops 0.99));
    ("wall_s", num r.Loop.wall_s);
    ("busy_s", num (sum r.Loop.cycle_busy_s));
    ("busy_raw_s", num (sum r.Loop.cycle_raw_s));
    ("ops_per_s_raw", num (Loop.rate_raw r));
    ("latency_p50_ms_raw", q raw 0.5);
    ("latency_p99_ms_raw", q raw 0.99);
    ("cycle_raw_s", floats r.Loop.cycle_raw_s);
    ("cycle_probe_ms", floats r.Loop.cycle_probe_ms);
    ( "classes",
      obj
        (Array.to_list
           (Array.mapi
              (fun c name ->
                let xs = Loop.class_latencies r c in
                ( name,
                  obj
                    [
                      ("share", num (float_of_int (Array.length xs) /. float_of_int (max 1 r.Loop.ops)));
                      ("p50_ms", q xs 0.5);
                      ("p99_ms", q xs 0.99);
                    ] ))
              inst.Workload.classes)) );
  ]

let probe_diag host =
  let p = Host.probes host in
  let q x = num (Stats.quantile p x) in
  ( "probe_ms",
    obj
      [
        ("n", string_of_int (Array.length p));
        ("min", q 0.);
        ("p25", q 0.25);
        ("p50", q 0.5);
        ("p75", q 0.75);
        ("max", q 1.);
      ] )

(* One fresh process that sets the workload up: the time from spawning
   it to its "ready" line, less the probe it ran first; raw and
   corrected. *)
let fresh_setup_s a host =
  Host.probe host;
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    [|
      Sys.executable_name; "--setup-only"; "--workload"; a.workload; "--seed";
      string_of_int a.seed; "--tmp"; a.tmp;
    |]
  in
  let t0 = Obs.Clock.now_ns () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  let t1 = Obs.Clock.now_ns () in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match (Option.bind line (fun l -> Scanf.sscanf_opt l "ready %Ld%!" Fun.id), status) with
  | Some probe_ns, Unix.WEXITED 0 ->
      let raw = ns_to_s probe_ns (Int64.sub t1 t0) in
      (raw, raw *. Host.factor host)
  | _ -> failwith "a set-up process failed"

let () =
  let a = parse () in
  let w =
    match List.find_opt (fun w -> w.Workload.name = a.workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (%s)\n" a.workload
          (String.concat ", " (List.map (fun w -> w.Workload.name) workloads));
        exit 2
  in
  (* one domain: the library's default pool *)
  Unix.putenv "CH_JOBS" "1";
  assert (Ch_core.Pool.jobs (Ch_core.Pool.default ()) = 1);
  Obs.set_enabled false;
  let first_probe_start = Obs.Clock.now_ns () in
  let host = Host.create () in
  let first_probe_ns = Int64.sub (Obs.Clock.now_ns ()) first_probe_start in
  let dir = Filename.concat a.tmp (Printf.sprintf "%s-%d" a.workload (Unix.getpid ())) in
  mkdir_p dir;
  let ctx =
    { Workload.seed = a.seed; host; dir; traced = false; inject = a.inject }
  in
  let live = ref None in
  let stop_live () =
    Option.iter (fun (i : Workload.instance) -> i.Workload.stop ()) !live;
    live := None
  in
  let start c =
    let i = w.Workload.setup c in
    live := Some i;
    i
  in
  if a.setup_only then begin
    Fun.protect
      ~finally:(fun () ->
        stop_live ();
        Workload.rm_rf dir)
      (fun () ->
        ignore (start ctx);
        Printf.printf "ready %Ld\n%!" first_probe_ns);
    exit 0
  end;
  let head = [ ("workload", Printf.sprintf "%S" a.workload); ("seed", string_of_int a.seed) ] in
  let run () =
    if not a.trace then begin
      let setup_raw, setup_s = Array.split (Array.init setups (fun _ -> fresh_setup_s a host)) in
      let inst = start ctx in
      (* peak RSS at a fixed point of the op sequence, so that it does
         not depend on how many ops the run got through: the end of the
         second cycle, as the first still carries set-up's one-time growth *)
      let rss_cycle = 2 in
      let rss_kb = ref 0 in
      let on_cycle c = if c = rss_cycle then rss_kb := Layer.peak_rss_kb () in
      let r =
        Loop.run ~host ~seconds:a.seconds ~min_ops:a.min_ops ~min_cycles:rss_cycle ~on_cycle
          inst.Workload.steps
      in
      let rss_end_kb = Layer.peak_rss_kb () in
      stop_live ();
      let lat = Loop.latencies r in
      let metrics =
        [
          ("setup_s", Stats.median setup_s);
          ("ops_per_s", Loop.rate r);
          ("latency_p50_ms", Stats.quantile lat 0.5);
          ("latency_p99_ms", Stats.quantile lat 0.99);
          ("peak_rss_mb", float_of_int !rss_kb /. 1024.);
        ]
      in
      diag
        ((head
         @ [
             ("setup_s_all", floats setup_s);
             ("setup_s_raw_all", floats setup_raw);
             ("peak_rss_mb_at_end", num (float_of_int rss_end_kb /. 1024.));
           ])
        @ loop_diag inst r @ [ probe_diag host ]);
      (r.Loop.ops, r.Loop.failed, metrics)
    end
    else begin
      (* an untraced half, then a traced half on a fresh instance: the
         difference between the two is the tracing overhead *)
      let half = a.seconds /. 2. in
      let ia = start ctx in
      let ra = Loop.run ~host ~seconds:half ~min_ops:a.min_ops ia.Workload.steps in
      stop_live ();
      Obs.set_enabled true;
      let ib = start { ctx with Workload.traced = true } in
      Obs.reset ();
      let gc0 = Gc.quick_stat () in
      let gc_first = ref [] in
      let on_cycle c =
        if c = 1 then begin
          let g = Gc.quick_stat () in
          gc_first :=
            [
              ("gc.minor_words", g.Gc.minor_words -. gc0.Gc.minor_words);
              ( "gc.major_collections",
                float_of_int (g.Gc.major_collections - gc0.Gc.major_collections) );
            ];
          ib.Workload.first_cycle ()
        end
      in
      let rb = Loop.run ~host ~seconds:half ~min_ops:a.min_ops ~on_cycle ib.Workload.steps in
      let layers = ib.Workload.layers rb in
      stop_live ();
      let metrics =
        layers @ !gc_first
        @ [
            ("host.probe_ms", Stats.median (Host.probes host));
            ("obs.overhead_pct", 100. *. ((Loop.rate ra /. Loop.rate rb) -. 1.));
          ]
      in
      diag ((head @ [ ("untraced", obj (loop_diag ia ra)) ]) @ loop_diag ib rb @ [ probe_diag host ]);
      Format.eprintf "%a@." (Obs.pp_profile ?wall_ns:None) (Obs.report ());
      ( ra.Loop.ops + rb.Loop.ops,
        ra.Loop.failed + rb.Loop.failed,
        metrics )
    end
  in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        stop_live ();
        Workload.rm_rf dir)
      (fun () ->
        match run () with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e))
  in
  match outcome with
  | Error msg ->
      Printf.eprintf "perfbench: %s failed: %s\n%!" a.workload msg;
      exit 2
  | Ok (attempted, failed, metrics) ->
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
        (failed = 0) attempted failed
        (obj (List.map (fun (name, v) -> (name, num v)) metrics));
      exit (if failed = 0 then 0 else 1)
