(* Command-line front end: list, inspect, and verify the lower-bound
   families, and run the Theorem 1.1 reduction.

   Every subcommand resolves families through the one registry
   ([Ch_lbgraphs.Families.catalog]) — there is no private family list
   here, so a family registered in its construction module is
   immediately listable, verifiable and sweepable.  [verify],
   [reduction] and [replay] build a protocol op and run it in this
   process through [Ops.exec], the code the daemon runs; their text is
   a rendering of the op's payload, and [client OP] sends the same op,
   built from the same arguments, to a daemon instead. *)

open Cmdliner
open Ch_core
open Ch_lbgraphs
open Ch_serve

let catalog = Families.catalog

module Obs = Ch_obs.Obs
module Jsonx = Ch_json.Jsonx

(* A failed open names the file; a failed read ("Is a directory") does
   not, so name it there too. *)
let read_lines file =
  try In_channel.with_open_text file In_channel.input_lines
  with Sys_error msg when not (String.starts_with ~prefix:(file ^ ": ") msg) ->
    raise (Sys_error (file ^ ": " ^ msg))

let k_arg =
  let doc = "Construction parameter k (a power of two, at least 2)." in
  Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc)

let family_arg =
  let doc = "Family id (see the list command)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FAMILY" ~doc)

let profile_arg =
  let doc =
    "Run under the telemetry layer and print a span-tree profile \
     (durations, percentages of wall time, solver/cache counters, \
     histograms) after the normal output."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let obs_out_arg =
  let doc =
    "With $(b,--profile), also stream telemetry events (span open/close \
     and, for reductions, the per-message trace) as JSONL to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "obs-out" ] ~docv:"FILE" ~doc)

(* With [profile], run [f] with telemetry on: install the optional JSONL
   event sink, wrap the work in a root span so the profile can attribute
   (nearly) all wall time, and render the merged report. *)
let profiled ~profile ~root ~obs_out f =
  if not profile then f ()
  else begin
    Obs.set_enabled true;
    Obs.reset ();
    let finish =
      match obs_out with
      | None -> fun () -> ()
      | Some file ->
          let oc = open_out file in
          Obs.set_sink (Some (Obs.jsonl oc));
          fun () ->
            Obs.set_sink None;
            close_out oc;
            Printf.printf "telemetry events written to %s\n" file
    in
    let sp_root = Obs.span root in
    let t0 = Obs.Clock.now_ns () in
    let r = Fun.protect ~finally:finish (fun () -> Obs.with_span sp_root f) in
    let wall_ns = Int64.sub (Obs.Clock.now_ns ()) t0 in
    Format.printf "%a" (Obs.pp_profile ~wall_ns) (Obs.report ());
    r
  end

(* The one table from an op error to the exit status.  Every code is one
   stderr line and exit 1: the message names the family and k (an engine
   or pair space that cannot run at this scale), lists the families that
   have the engine or reduction asked for, or lists the valid ids. *)
let op_failed (_code, msg) =
  prerr_endline msg;
  1

(* The commands that are not ops (sweep, profile; list per family) look
   their family up under the guard every op runs under, so they fail
   with the same lines. *)
let with_family name ~k f =
  match Ops.with_family name ~k f with Ok code -> code | Error e -> op_failed e

(* A file a command cannot open — a missing directory under --obs-out
   or --trace, a regular file on the --resume path, a missing capture —
   raises [Sys_error "PATH: reason"] or a [Unix_error] naming PATH:
   one "PATH: reason" line and exit 1. *)
let path_errors f =
  try f () with
  | Sys_error msg ->
      prerr_endline msg;
      1
  | Unix.Unix_error (e, fn, path) ->
      Printf.eprintf "%s: %s\n" (if path = "" then fn else path)
        (Unix.error_message e);
      1

(* counts a command needs positive: the first below 1, as an error line *)
let below_one cmd counts =
  List.find_map
    (fun (flag, n) ->
      if n < 1 then Some (Printf.sprintf "%s: %s must be at least 1" cmd flag)
      else None)
    counts

let list_cmd =
  let run k json =
    if json then begin
      print_string (Jsonx.to_document (Registry.to_json (catalog ())));
      0
    end
    else begin
      Printf.printf "%-24s %8s %8s %6s  %-22s %s\n" "family" "n" "K" "cut"
        "paper" "engines";
      let rec rows = function
        | [] -> 0
        | s :: rest -> (
            match
              Ops.with_family s.Registry.id ~k (fun s -> s.Registry.scratch k)
            with
            | Error e -> op_failed e
            | Ok fam ->
                let engines =
                  String.concat "+"
                    (("scratch"
                     :: (if s.Registry.incremental <> None then [ "inc" ]
                         else []))
                    @ if s.Registry.reduction <> None then [ "red" ] else [])
                in
                Printf.printf "%-24s %8d %8d %6d  %-22s %s\n" s.Registry.id
                  fam.Framework.nvertices fam.Framework.input_bits
                  (Framework.cut_size fam) s.Registry.paper_ref engines;
                rows rest)
      in
      rows (Registry.all (catalog ()))
    end
  in
  let json_arg =
    let doc = "Dump the catalog as JSON (ids, paper refs, engine flags)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the lower-bound families and their parameters.")
    Term.(const run $ k_arg $ json_arg)

(* ------------------------------------------------------------------ ops *)

(* One term per op: it declares the op's arguments once and builds the
   [Protocol.op], for the local command and for [client OP] alike. *)

let verify_op =
  let samples_arg =
    let doc = "Number of random input pairs to verify." in
    Arg.(value & opt int 20 & info [ "samples" ] ~doc)
  in
  let exhaustive_arg =
    let doc = "Verify all 4^K input pairs (K must be small)." in
    Arg.(value & flag & info [ "exhaustive" ] ~doc)
  in
  let incremental_arg =
    let doc = "Verify through the memoized incremental engine instead." in
    Arg.(value & flag & info [ "incremental" ] ~doc)
  in
  let make k family samples exhaustive incremental =
    Protocol.Verify
      {
        family;
        k;
        vmode =
          (if exhaustive then Pairs.Exhaustive
           else Pairs.Sampled { seed = 11; samples });
        engine =
          (if incremental then Protocol.Incremental else Protocol.Scratch);
      }
  in
  Term.(
    const make $ k_arg $ family_arg $ samples_arg $ exhaustive_arg
    $ incremental_arg)

let reduction_op =
  let family_arg =
    let doc = "Family id (must carry a reduction algorithm — see list)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FAMILY" ~doc)
  in
  let pairs_arg =
    let doc = "Number of sampled input pairs (on top of the four corners)." in
    Arg.(value & opt int 8 & info [ "pairs" ] ~doc)
  in
  let exhaustive_arg =
    let doc = "Sweep all 4^K input pairs (K must be at most 5)." in
    Arg.(value & flag & info [ "exhaustive" ] ~doc)
  in
  let seed_arg =
    Arg.(value & opt int 41 & info [ "seed" ] ~doc:"Sampling seed.")
  in
  Term.(
    const (fun k family pairs exhaustive seed ->
        Protocol.Reduction { family; k; exhaustive; pairs; seed })
    $ k_arg $ family_arg $ pairs_arg $ exhaustive_arg $ seed_arg)

(* A sweep plan — family, k, shard count, pair mode — as [sweep] spells
   it; [client sweep-status] asks the daemon's store about the same plan. *)
let sweep_plan =
  let shards_arg =
    let doc = "Number of shards to cut the pair space into." in
    Arg.(value & opt int 8 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let sample_arg =
    let doc =
      "Sweep the 4 corner pairs plus $(docv) seeded samples instead of all \
       4^K pairs."
    in
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"M" ~doc)
  in
  let seed_arg =
    Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Sampling seed.")
  in
  let make k family shards sample seed =
    ( family,
      k,
      shards,
      match sample with
      | None -> Pairs.Exhaustive
      | Some samples -> Pairs.Sampled { seed; samples } )
  in
  Term.(const make $ k_arg $ family_arg $ shards_arg $ sample_arg $ seed_arg)

let sweep_status_op =
  Term.(
    const (fun (family, k, shards, vmode) ->
        Protocol.Sweep_status { family; k; shards; vmode })
    $ sweep_plan)

(* Run an op in this process, on a warm registry with no store. *)
let local ?trace op () = Ops.exec ?trace (Warm.create ~store_dir:None) op

let render f = function Ok (_, body) -> f body | Error e -> op_failed e

(* payload fields the renderers read; [Ops] always sets them *)
let get conv body name =
  match Option.bind (Jsonx.mem name body) conv with
  | Some v -> v
  | None -> invalid_arg ("payload lacks " ^ name)

let jint = get Jsonx.as_int
let jstr = get Jsonx.as_str
let jbool = get Jsonx.as_bool
let jfloat = get Jsonx.as_float
let jarr = get Jsonx.as_arr

let verify_cmd =
  let run op profile obs_out =
    path_errors @@ fun () ->
    profiled ~profile ~root:"verify" ~obs_out (local op)
    |> render (fun body ->
           let pairs = jint body "pairs" and failures = jint body "failures" in
           Printf.printf
             "%s: property verified on %d/%d input pairs; Definition 1.1 side \
              conditions: %b\n"
             (jstr body "family") (pairs - failures) pairs (jbool body "sided");
           Printf.printf "Theorem 1.1 bound at this scale: Ω(%.1f) rounds\n"
             (jfloat body "lb_rounds");
           if failures = 0 then 0 else 1)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Verify a family's defining iff-property with the exact solvers.")
    Term.(const run $ verify_op $ profile_arg $ obs_out_arg)

let reduction_cmd =
  let open Ch_reduction in
  let run op trace_file profile obs_out =
    path_errors @@ fun () ->
    (* --trace keeps its raw JSONL file; --profile additionally tees the
       events into the telemetry layer (reduction.* counters and, with
       --obs-out, the shared event stream) *)
    let with_file_sink f =
      match trace_file with
      | None -> f None
      | Some file ->
          let oc = open_out file in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> f (Some (Trace.jsonl oc)))
    in
    with_file_sink (fun file_sink ->
        let trace =
          match (profile, file_sink) with
          | false, sink -> sink
          | true, None -> Some Trace.obs_sink
          | true, Some fs -> Some (Trace.tee Trace.obs_sink fs)
        in
        profiled ~profile ~root:"reduction" ~obs_out (local ?trace op))
    |> render (fun body ->
           Printf.printf "%s: n=%d K=%d t=%d |cut|=%d B=%d\n"
             (jstr body "family") (jint body "n") (jint body "input_bits")
             (jint body "parties") (jint body "cut") (jint body "bandwidth");
           Printf.printf
             "pairs=%d rounds<=%d cut-bits<=%d budget<=%d bits/round=%.1f\n"
             (jint body "pairs") (jint body "rounds_max")
             (jint body "cut_bits_max") (jint body "budget_max")
             (jfloat body "bits_per_round");
           Printf.printf "CC(f)>=%d bits => Omega(%.2f) rounds\n"
             (jint body "cc_bits") (jfloat body "lb_rounds");
           let ok = jbool body in
           Printf.printf
             "all-correct=%b transcript=oracle=%b within-budget=%b\n"
             (ok "decisions_ok")
             (ok "transcript_differential_ok")
             (ok "within_budget");
           let skipped = jint body "skipped" in
           if skipped > 0 then
             Printf.printf
               "skipped %d disconnected pair%s (outside the CONGEST model)\n"
               skipped
               (if skipped = 1 then "" else "s");
           List.iter
             (fun r ->
               Printf.printf
                 "  x=%s y=%s rounds=%d cut-bits=%d %s oracle=%s\n"
                 (jstr r "x") (jstr r "y") (jint r "rounds")
                 (jint r "cut_bits")
                 (if jbool r "correct" then "correct" else "WRONG")
                 (if jbool r "oracle_ok" then "ok" else "MISMATCH"))
             (jarr body "rows");
           Option.iter (Printf.printf "trace written to %s\n") trace_file;
           if
             ok "transcript_differential_ok" && ok "decisions_ok"
             && ok "within_budget"
           then 0
           else 1)
  in
  let trace_arg =
    let doc = "Write the per-message/per-round trace as JSONL to $(docv)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "reduction"
       ~doc:
         "Mechanize Theorem 1.1: compile the CONGEST run on G_{x,y} into a \
          two-party transcript, difference it against the network oracle, \
          and report the empirical lower-bound figure.")
    Term.(const run $ reduction_op $ trace_arg $ profile_arg $ obs_out_arg)

(* Round-level trace replay: regenerate the sweep that produced a
   --trace JSONL file and difference the two event streams round by
   round.  The simulation is deterministic (seeded per-vertex RNG, fixed
   sampling derivation), so any divergence — a changed codec, charging
   rule or stepper schedule — surfaces at the first differing round. *)
let replay_cmd =
  let open Ch_reduction in
  let round_of line =
    match Jsonx.parse line with
    | Ok j -> Option.bind (Jsonx.mem "round" j) Jsonx.as_int
    | Error _ -> None
  in
  let run op trace_file =
    path_errors @@ fun () ->
    let recorded = read_lines trace_file in
    let sink, events = Trace.collector () in
    local ~trace:sink op ()
    |> render (fun _ ->
           let replayed =
             List.map (fun e -> Jsonx.to_string (Trace.to_json e)) (events ())
           in
           let sweep =
             match op with
             | Protocol.Reduction { family; k; exhaustive; pairs; seed } ->
                 Printf.sprintf "%s, k=%d, %s" family k
                   (if exhaustive then "exhaustive"
                    else Printf.sprintf "pairs=%d seed=%d" pairs seed)
             | _ -> ""
           in
           let rec diff i rec_lines rep_lines =
             match (rec_lines, rep_lines) with
             | [], [] ->
                 Printf.printf "trace replay ok: %d events match (%s)\n" i
                   sweep;
                 0
             | a :: _, [] | [], a :: _ ->
                 Printf.eprintf
                   "FAIL: traces diverge at event %d%s: one stream ends, the \
                    other continues with:\n\
                   \  %s\n"
                   i
                   (match round_of a with
                   | Some r -> Printf.sprintf " (round %d)" r
                   | None -> "")
                   a;
                 1
             | a :: rest_a, b :: rest_b ->
                 if String.equal a b then diff (i + 1) rest_a rest_b
                 else begin
                   Printf.eprintf
                     "FAIL: traces diverge at event %d%s:\n\
                     \  recorded: %s\n\
                     \  replayed: %s\n"
                     i
                     (match round_of b with
                     | Some r -> Printf.sprintf " (round %d)" r
                     | None -> "")
                     a b;
                   1
                 end
           in
           match recorded with
           | [] ->
               Printf.eprintf "FAIL: %s holds no trace events\n" trace_file;
               1
           | _ -> diff 0 recorded replayed)
  in
  let trace_file_arg =
    let doc = "The JSONL trace written by $(b,hardness reduction --trace)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run a reduction sweep (same arguments as $(b,reduction)) and \
          difference its trace against a recorded JSONL trace round by \
          round, failing on the first divergence — the CI determinism guard \
          for the simulation stack.")
    Term.(const run $ reduction_op $ trace_file_arg)

let sweep_cmd =
  let open Ch_sweep in
  let run (name, k, shards, mode) resume fault_after check_oracle profile
      obs_out =
    path_errors @@ fun () ->
    with_family name ~k @@ fun s ->
    let fam = s.Registry.scratch k in
    let total = Pairs.total ~k:fam.Framework.input_bits mode in
    Printf.printf "%s sweep: k=%d, %d pairs, %d shards, store %s\n"
      s.Registry.id k total shards
      (match resume with
      | Some dir -> Filename.concat dir (Sweep.store_key fam ~mode ~shards)
      | None -> "(scratch)");
    (* SIGINT/SIGTERM behave like --fault-after at the moment the signal
       lands: in-flight shards finish and persist, the run raises
       [Interrupted], the process exits 3 — never a torn store write, and
       the same --resume continues the sweep. *)
    let stop = Atomic.make false in
    let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    ignore (Sys.signal Sys.sigint on_signal);
    ignore (Sys.signal Sys.sigterm on_signal);
    let work () =
      Sweep.run ?store_dir:resume ?fault_after
        ~should_stop:(fun () -> Atomic.get stop)
        fam ~mode ~shards
    in
    match profiled ~profile ~root:"sweep" ~obs_out work with
    | exception Sweep.Interrupted done_shards ->
        Printf.printf
          "sweep interrupted after %d shard%s; rerun with the same --resume to \
           continue\n"
          done_shards
          (if done_shards = 1 then "" else "s");
        3
    | o ->
        Printf.printf
          "shards: completed=%d resumed=%d recomputed=%d corrupt=%d (of %d)\n"
          o.Sweep.shards_completed o.Sweep.shards_resumed
          o.Sweep.shards_recomputed o.Sweep.artifacts_corrupt
          o.Sweep.shards_total;
        if o.Sweep.tables_restored > 0 then
          Printf.printf "memo tables restored from store: %d\n"
            o.Sweep.tables_restored;
        Printf.printf "verdicts: %d pairs, %d failures, digest %s\n"
          (Array.length o.Sweep.verdicts)
          o.Sweep.failures
          (Sweep.digest o.Sweep.verdicts);
        let oracle_ok =
          if not check_oracle then true
          else begin
            let ok =
              fst (Framework.verdicts (Framework.Scratch fam) mode)
              = o.Sweep.verdicts
            in
            Printf.printf "oracle differential: %s\n"
              (if ok then "ok" else "MISMATCH");
            ok
          end
        in
        if o.Sweep.failures = 0 && oracle_ok then 0 else 1
  in
  let resume_arg =
    let doc =
      "Store root: persist per-shard verdict blocks and the memo snapshot \
       under $(docv), and resume from any valid artifacts already there."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"DIR" ~doc)
  in
  let fault_after_arg =
    let doc =
      "Crash injection: stop after $(docv) shards are computed and exit 3 \
       (completed shards persist; resume with the same --resume)."
    in
    Arg.(value & opt (some int) None & info [ "fault-after" ] ~docv:"S" ~doc)
  in
  let check_oracle_arg =
    let doc =
      "Also run the single-process from-scratch sweep in this process and \
       diff the merged verdict stream against it."
    in
    Arg.(value & flag & info [ "check-oracle" ] ~doc)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a sharded, resumable verdict sweep over a family's input-pair \
          space, persisting per-shard blocks to a content-addressed store.")
    Term.(
      const run $ sweep_plan $ resume_arg $ fault_after_arg $ check_oracle_arg
      $ profile_arg $ obs_out_arg)

(* Offline span-tree reconstruction: parse the span_open/span_close
   events out of a JSONL telemetry capture (one file, or several
   concatenated — client and server) and render the joined profile.
   This is how a traced client request becomes one tree: the client's
   capture and the daemon's capture share the machine monotonic clock
   and the trace id, so Spanview grafts the server's roots under the
   client span that contains them. *)
let profile_from file =
  match Ch_obs.Spanview.of_jsonl (read_lines file) with
  | Error (lineno, msg) ->
      Printf.eprintf "%s:%d: %s\n" file lineno msg;
      1
  | Ok [] ->
      Printf.eprintf "profile: %s holds no span events\n" file;
      1
  | Ok events ->
      let ts = List.map (fun e -> e.Ch_obs.Spanview.e_t_ns) events in
      let wall_ns =
        Int64.sub
          (List.fold_left Int64.max Int64.min_int ts)
          (List.fold_left Int64.min Int64.max_int ts)
      in
      Format.printf "%a"
        (Obs.pp_profile ~wall_ns)
        (Ch_obs.Spanview.to_report events);
      0

let profile_cmd =
  let run k name from obs_out =
    path_errors @@ fun () ->
    match (from, name) with
    | Some file, _ -> profile_from file
    | None, None ->
        Printf.eprintf "profile: pass a FAMILY id or --from FILE.jsonl\n";
        2
    | None, Some name ->
        with_family name ~k @@ fun s ->
        (* the exhaustive sweep through the incremental engine when the
           family has one (the representative workload: memoized solver
           caches under the pool), a random sweep otherwise *)
        let work () =
          let fam, engine, mode =
            match s.Registry.incremental with
            | Some inc ->
                let inc = inc k in
                ( inc.Framework.scratch,
                  Framework.Incremental inc,
                  Pairs.Exhaustive )
            | None ->
                let fam = s.Registry.scratch k in
                ( fam,
                  Framework.Scratch fam,
                  Pairs.Sampled { seed = 11; samples = 32 } )
          in
          let v, _ = Framework.verdicts engine mode in
          (Framework.failures fam mode v, Array.length v)
        in
        let failures, total =
          profiled ~profile:true ~root:("profile:" ^ s.Registry.id) ~obs_out
            work
        in
        Printf.printf "%s: %d/%d pairs verified\n" s.Registry.id
          (total - failures) total;
        if failures = 0 then 0 else 1
  in
  let opt_family_arg =
    let doc = "Family id (omit with $(b,--from))." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FAMILY" ~doc)
  in
  let from_arg =
    let doc =
      "Replay mode: reconstruct and render the span tree from a JSONL \
       telemetry capture (client and server captures may be concatenated; \
       traced spans join across processes) instead of running a workload."
    in
    Arg.(value & opt (some string) None & info [ "from" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a family's verification workload under the telemetry layer \
          and render the span-tree profile (per-solver wall time, cache \
          counters, histograms), or rebuild the tree from a JSONL capture \
          with $(b,--from).")
    Term.(const run $ k_arg $ opt_family_arg $ from_arg $ obs_out_arg)

(* ------------------------------------------------------------------ serve *)

let socket_arg =
  let doc = "Listen on (or connect to) the Unix socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Listen on (or connect to) loopback TCP port $(docv)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"N" ~doc)

let resolve_addr socket port =
  match (socket, port) with
  | Some path, None -> Ok (Server.Unix_socket path)
  | None, Some p -> Ok (Server.Tcp p)
  | None, None -> Error "pass --socket PATH or --port N"
  | Some _, Some _ -> Error "--socket and --port are mutually exclusive"

let serve_cmd =
  let run socket port workers queue_depth store obs_out sample_period =
    path_errors @@ fun () ->
    match
      ( below_one "serve"
          [ ("--workers", workers); ("--queue-depth", queue_depth) ],
        resolve_addr socket port )
    with
    | Some msg, _ ->
        prerr_endline msg;
        1
    | None, Error msg ->
        Printf.eprintf "serve: %s\n" msg;
        1
    | None, Ok addr ->
        (* counters and histograms feed the metrics/health ops even
           without a JSONL sink, so the daemon always runs observed *)
        Obs.set_enabled true;
        let cfg =
          {
            Server.cfg_addr = addr;
            cfg_workers = workers;
            cfg_queue_depth = queue_depth;
            cfg_store_dir = store;
            cfg_obs_out = obs_out;
            cfg_sample_period_s = sample_period;
          }
        in
        let server = Server.start cfg in
        (* SIGTERM/SIGINT request a graceful drain: stop accepting,
           finish queued requests, persist the warm caches, unlink the
           socket, exit 0. *)
        let stop = Atomic.make false in
        let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
        ignore (Sys.signal Sys.sigterm on_signal);
        ignore (Sys.signal Sys.sigint on_signal);
        Printf.printf
          "hardness serve: listening on %s (workers=%d, queue=%d, store=%s, \
           warm tables=%d)\n\
           %!"
          (match addr with
          | Server.Unix_socket p -> p
          | Server.Tcp p -> Printf.sprintf "127.0.0.1:%d" p)
          workers queue_depth
          (Option.value store ~default:"(none)")
          (Warm.tables_seeded (Server.warm server));
        while not (Atomic.get stop) do
          Thread.delay 0.05
        done;
        Printf.printf "hardness serve: draining\n%!";
        Server.stop server;
        Printf.printf "hardness serve: stopped (warm entries=%d)\n%!"
          (Warm.entries (Server.warm server));
        0
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N" ~doc:"Scheduler worker threads.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission queue bound: requests past it are answered \
             $(b,overloaded) immediately.")
  in
  let store_arg =
    Arg.(
      value & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Sweep store root: seed the warm caches from its memo \
             snapshots at startup and persist them back on shutdown.")
  in
  let serve_obs_arg =
    Arg.(
      value & opt (some string) None
      & info [ "obs-out" ] ~docv:"FILE"
          ~doc:"Stream per-request telemetry events as JSONL to $(docv).")
  in
  let sample_period_arg =
    Arg.(
      value & opt float 1.0
      & info [ "sample-period" ] ~docv:"S"
          ~doc:
            "Metrics sampler period in seconds: the exposition's rates and \
             latency quantiles are windowed over snapshots taken this \
             often.  Non-positive disables the sampler (quantiles fall \
             back to cumulative).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification daemon: batched verify/reduction requests \
          over a length-prefixed JSON protocol, with warm solver caches, \
          bounded admission, live metrics/health exposition, and graceful \
          SIGTERM drain.")
    Term.(
      const run $ socket_arg $ port_arg $ workers_arg $ queue_arg $ store_arg
      $ serve_obs_arg $ sample_period_arg)


(* [client OP] sends the op that [hardness OP] would run, built by the
   same term from the same arguments; one remote term declares the flags
   every op shares. *)
let client_cmd =
  let opt_str body name = Option.bind (Jsonx.mem name body) Jsonx.as_str in
  (* [raw]: a payload field to print verbatim instead of the JSON line —
     the metrics op answers the whole exposition page as one string *)
  let print_response ?raw r =
    match r.Protocol.rs_outcome with
    | Protocol.Payload body -> (
        match Option.bind raw (opt_str body) with
        | Some text -> print_string text
        | None ->
            Printf.printf "id=%d ok warm=%b micros=%d %s\n" r.Protocol.rs_id
              r.Protocol.rs_warm r.Protocol.rs_micros (Jsonx.to_string body))
    | Protocol.Error (code, msg) ->
        Printf.printf "id=%d error=%s message=%s\n" r.Protocol.rs_id
          (Protocol.error_code_to_string code)
          msg
  in
  let send socket port deadline trace_id obs_out repeat bench check_oracle op =
    path_errors @@ fun () ->
    match
      ( below_one "client" [ ("--repeat", repeat); ("--bench", bench) ],
        resolve_addr socket port )
    with
    | Some msg, _ ->
        prerr_endline msg;
        1
    | None, Error msg ->
        Printf.eprintf "client: %s\n" msg;
        1
    | None, Ok addr -> (
        let raw = match op with Protocol.Metrics -> Some "text" | _ -> None in
        let request id =
          {
            Protocol.rq_id = id;
            rq_op = op;
            rq_deadline_ms = deadline;
            rq_trace = trace_id;
          }
        in
        (* with --obs-out, capture this process's own span events (under
           --trace-id, stamped with it): concatenated with the daemon's
           capture, [hardness profile --from] joins them into one tree *)
        let with_client_obs f =
          match obs_out with
          | None -> f ()
          | Some file ->
              Obs.set_enabled true;
              Obs.reset ();
              let oc = open_out file in
              Obs.set_sink (Some (Obs.jsonl oc));
              Fun.protect
                ~finally:(fun () ->
                  Obs.set_sink None;
                  close_out oc)
                (fun () ->
                  Obs.with_trace trace_id (fun () ->
                      Obs.with_span (Obs.span "client_request") f))
        in
        (* the in-process oracle for verify ops: the served verdict
           stream must be bit-identical to a from-scratch run here *)
        let oracle_digest =
          lazy
            (match op with
            | Protocol.Verify v -> (
                let scratch = Protocol.Verify { v with engine = Protocol.Scratch } in
                match local scratch () with
                | Ok (_, body) -> opt_str body "digest"
                | Error _ -> None)
            | _ -> None)
        in
        let check r =
          match (check_oracle, r.Protocol.rs_outcome) with
          | false, Protocol.Payload _ -> true
          | _, Protocol.Error _ -> false
          | true, Protocol.Payload body -> (
              match opt_str body "digest" with
              | None -> true (* no digest in this op's body *)
              | Some d ->
                  let ok = Some d = Lazy.force oracle_digest in
                  Printf.printf "oracle differential: %s\n"
                    (if ok then "ok" else "MISMATCH");
                  ok)
        in
        try
          with_client_obs @@ fun () ->
          (* [bench] connections, [repeat] requests each; a connection's
             error is raised here, once every thread has joined *)
          let results = Array.make bench (Ok []) in
          let connection i () =
            results.(i) <-
              (try
                 let c = Client.connect ~retries:20 addr in
                 let rs =
                   List.concat_map
                     (fun rep ->
                       Client.roundtrip c [ request ((i * repeat) + rep) ])
                     (List.init repeat Fun.id)
                 in
                 Client.close c;
                 Ok rs
               with e -> Error e)
          in
          List.iter Thread.join
            (List.init bench (fun i -> Thread.create (connection i) ()));
          let per_connection =
            List.map
              (function Ok rs -> rs | Error e -> raise e)
              (Array.to_list results)
          in
          let responses = List.concat per_connection in
          (* every response is printed and checked here, in this one
             thread: [check] forces the oracle digest, a [Lazy] *)
          let ok =
            List.fold_left
              (fun ok r ->
                print_response ?raw r;
                check r && ok)
              true responses
          in
          let payload f r =
            match r.Protocol.rs_outcome with
            | Protocol.Payload body -> f body
            | Protocol.Error _ -> None
          in
          let agree =
            match
              List.filter_map (payload (fun b -> opt_str b "digest")) responses
            with
            | [] -> true
            | d :: rest -> List.for_all (( = ) d) rest
          in
          if bench > 1 || not agree then
            Printf.printf "bench: %d clients, digests %s\n" bench
              (if agree then "agree" else "DISAGREE");
          (match
             List.filter_map
               (fun r -> payload (fun _ -> Some r.Protocol.rs_micros) r)
               (List.hd per_connection)
           with
          | cold :: (_ :: _ as warm) ->
              let best = List.fold_left min max_int warm in
              Printf.printf "warm_speedup=%.1f\n"
                (float_of_int cold /. float_of_int (max 1 best))
          | _ -> ());
          if ok && agree then 0 else 1
        with
        | Unix.Unix_error (e, _, _) ->
            Printf.eprintf "client: cannot reach daemon: %s\n"
              (Unix.error_message e);
            1
        | Protocol.Protocol_error msg ->
            Printf.eprintf "client: protocol error: %s\n" msg;
            1
        | Failure msg ->
            Printf.eprintf "client: %s\n" msg;
            1)
  in
  let deadline_arg =
    let doc =
      "Per-request deadline: the server answers $(b,deadline_exceeded) when \
       the request has not started within $(docv) milliseconds."
    in
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let trace_id_arg =
    let doc =
      "Send $(docv) as the request's trace id: the daemon runs the request \
       under it, so both sides' telemetry events carry the same id and \
       join into one span tree."
    in
    Arg.(value & opt (some string) None & info [ "trace-id" ] ~docv:"ID" ~doc)
  in
  let obs_arg =
    let doc =
      "Capture this client's own span events as JSONL to $(docv) \
       (stamped with $(b,--trace-id) when given); concatenate with the \
       daemon's capture and render via $(b,hardness profile --from)."
    in
    Arg.(value & opt (some string) None & info [ "obs-out" ] ~docv:"FILE" ~doc)
  in
  let repeat_arg =
    let doc =
      "Send the request $(docv) times on each connection and report the \
       cold-vs-warm speedup of the first."
    in
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"R" ~doc)
  in
  let bench_arg =
    let doc =
      "Drive $(docv) concurrent connections, $(b,--repeat) requests each, \
       and assert the served digests agree."
    in
    Arg.(value & opt int 1 & info [ "bench" ] ~docv:"C" ~doc)
  in
  let check_oracle_arg =
    let doc =
      "Also compute the verdict stream in-process and diff its digest \
       against the served one."
    in
    Arg.(value & flag & info [ "check-oracle" ] ~doc)
  in
  let remote =
    Term.(
      const send $ socket_arg $ port_arg $ deadline_arg $ trace_id_arg
      $ obs_arg $ repeat_arg $ bench_arg $ check_oracle_arg)
  in
  let op name doc term = Cmd.v (Cmd.info name ~doc) Term.(remote $ term) in
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Query a running $(b,hardness serve) daemon: one-shot requests, \
          warm-cache repeats, metrics scrapes, and concurrent-connection \
          bench mode with oracle differentials.  $(b,client OP) takes \
          $(b,hardness OP)'s own arguments.")
    [
      op "ping" "Check that the daemon answers." (Term.const Protocol.Ping);
      op "catalog" "The family catalog, as $(b,list --json) prints it."
        (Term.const Protocol.Catalog);
      op "stats" "Warm entries, queue depth and worker count."
        (Term.const Protocol.Stats);
      op "metrics" "The Prometheus-style text exposition."
        (Term.const Protocol.Metrics);
      op "health" "Liveness: uptime, queue depth, warm entries."
        (Term.const Protocol.Health);
      op "verify" "$(b,verify) on the daemon." verify_op;
      op "reduction" "$(b,reduction) on the daemon." reduction_op;
      op "sweep-status"
        "What the daemon's store holds for a $(b,sweep) plan (same \
         arguments as $(b,sweep))."
        sweep_status_op;
    ]

(* ------------------------------------------------------------------- top *)

(* One exposition sample: [name{k="v",...} value].  The parser mirrors
   Expose's renderer (dogfooding: top sees exactly what a scraper sees),
   including label-value unescaping. *)
type msample = {
  m_name : string;
  m_labels : (string * string) list;
  m_value : float;
}

let parse_sample line =
  let n = String.length line in
  if n = 0 || line.[0] = '#' then None
  else begin
    let i = ref 0 in
    while !i < n && line.[!i] <> '{' && line.[!i] <> ' ' do
      incr i
    done;
    if !i = 0 || !i >= n then None
    else begin
      let name = String.sub line 0 !i in
      let labels = ref [] in
      let ok = ref true in
      if line.[!i] = '{' then begin
        incr i;
        while !ok && !i < n && line.[!i] <> '}' do
          let ks = !i in
          while !i < n && line.[!i] <> '=' do
            incr i
          done;
          if !i + 1 >= n || line.[!i + 1] <> '"' then ok := false
          else begin
            let key = String.sub line ks (!i - ks) in
            i := !i + 2;
            let b = Buffer.create 8 in
            let fin = ref false in
            while (not !fin) && !i < n do
              (match line.[!i] with
              | '\\' when !i + 1 < n ->
                  incr i;
                  Buffer.add_char b
                    (match line.[!i] with 'n' -> '\n' | c -> c)
              | '"' -> fin := true
              | c -> Buffer.add_char b c);
              incr i
            done;
            if not !fin then ok := false
            else begin
              labels := (key, Buffer.contents b) :: !labels;
              if !i < n && line.[!i] = ',' then incr i
            end
          end
        done;
        if !i < n && line.[!i] = '}' then incr i else ok := false
      end;
      if not !ok then None
      else begin
        while !i < n && line.[!i] = ' ' do
          incr i
        done;
        match float_of_string_opt (String.sub line !i (n - !i)) with
        | Some v ->
            Some { m_name = name; m_labels = List.rev !labels; m_value = v }
        | None -> None
      end
    end
  end

let top_cmd =
  let value ?(default = 0.) samples name =
    match
      List.find_opt (fun s -> s.m_name = name && s.m_labels = []) samples
    with
    | Some s -> s.m_value
    | None -> default
  in
  let quantile samples name q =
    List.find_opt
      (fun s ->
        s.m_name = name && List.assoc_opt "quantile" s.m_labels = Some q)
      samples
    |> Option.fold ~none:"-" ~some:(fun s -> Printf.sprintf "%.0f" s.m_value)
  in
  let render addr_str samples =
    let v = value samples in
    Printf.printf "hardness top — %s   uptime %.0fs   window %.1fs (%d samples)\n"
      addr_str
      (v "ch_serve_uptime_seconds")
      (v "ch_serve_sampler_window_seconds")
      (int_of_float (v "ch_serve_sampler_samples"));
    Printf.printf
      "req/s %.1f   queue %d   running %d/%d workers   warm entries %d   \
       warm rate %.2f\n"
      (v "ch_serve_requests_per_second")
      (int_of_float (v "ch_serve_queue_depth"))
      (int_of_float (v "ch_serve_running"))
      (int_of_float (v "ch_serve_workers"))
      (int_of_float (v "ch_serve_warm_entries"))
      (v "ch_serve_warm_rate");
    Printf.printf "queue wait us: p50 %s  p90 %s  p99 %s\n"
      (quantile samples "ch_serve_queue_wait_us" "0.5")
      (quantile samples "ch_serve_queue_wait_us" "0.9")
      (quantile samples "ch_serve_queue_wait_us" "0.99");
    let clients =
      List.filter (fun s -> s.m_name = "ch_serve_queue_depth_client") samples
    in
    if clients <> [] then begin
      Printf.printf "per-client queue:";
      List.iter
        (fun s ->
          Printf.printf " %s=%d"
            (Option.value (List.assoc_opt "client" s.m_labels) ~default:"?")
            (int_of_float s.m_value))
        clients;
      print_newline ()
    end;
    (* op table: every summary named ch_serve_op_<tag>_us with traffic *)
    let op_of s =
      let p = "ch_serve_op_" and sfx = "_us_count" in
      if
        String.starts_with ~prefix:p s.m_name
        && String.ends_with ~suffix:sfx s.m_name
        && s.m_value > 0.
      then
        Some
          ( String.sub s.m_name (String.length p)
              (String.length s.m_name - String.length p - String.length sfx),
            int_of_float s.m_value )
      else None
    in
    let ops = List.filter_map op_of samples in
    if ops <> [] then begin
      Printf.printf "%-14s %8s %8s %8s %8s  (us)\n" "op" "count" "p50" "p90"
        "p99";
      List.iter
        (fun (tag, count) ->
          let h = "ch_serve_op_" ^ tag ^ "_us" in
          Printf.printf "%-14s %8d %8s %8s %8s\n" tag count
            (quantile samples h "0.5") (quantile samples h "0.9")
            (quantile samples h "0.99"))
        ops
    end;
    let rates =
      List.filter (fun s -> s.m_name = "ch_cache_hit_rate") samples
    in
    if rates <> [] then begin
      Printf.printf "cache hit rate:";
      List.iter
        (fun s ->
          Printf.printf " %s=%.3f"
            (Option.value (List.assoc_opt "kind" s.m_labels) ~default:"?")
            s.m_value)
        rates;
      print_newline ()
    end;
    let fams =
      List.filter_map
        (fun s ->
          let p = "ch_serve_family_" and sfx = "_pairs" in
          if
            String.starts_with ~prefix:p s.m_name
            && String.ends_with ~suffix:sfx s.m_name
          then
            Some
              ( String.sub s.m_name (String.length p)
                  (String.length s.m_name - String.length p
                 - String.length sfx),
                int_of_float s.m_value )
          else None)
        samples
    in
    if fams <> [] then begin
      Printf.printf "family pairs served:";
      List.iter (fun (f, n) -> Printf.printf " %s=%d" f n) fams;
      print_newline ()
    end
  in
  let run socket port interval iters plain =
    match resolve_addr socket port with
    | Error msg ->
        Printf.eprintf "top: %s\n" msg;
        1
    | Ok addr -> (
        let addr_str =
          match addr with
          | Server.Unix_socket p -> p
          | Server.Tcp p -> Printf.sprintf "127.0.0.1:%d" p
        in
        try
          let c = Client.connect ~retries:20 addr in
          let fetch () =
            match
              Client.roundtrip c
                [
                  {
                    Protocol.rq_id = 0;
                    rq_op = Protocol.Metrics;
                    rq_deadline_ms = None;
                    rq_trace = None;
                  };
                ]
            with
            | [ { Protocol.rs_outcome = Protocol.Payload body; _ } ] ->
                Option.bind (Jsonx.mem "text" body) Jsonx.as_str
            | _ -> None
          in
          let code = ref 0 in
          let i = ref 0 in
          let continue () = !code = 0 && (iters = 0 || !i < iters) in
          while continue () do
            incr i;
            (match fetch () with
            | None ->
                Printf.eprintf "top: daemon answered no metrics\n";
                code := 1
            | Some text ->
                let samples =
                  List.filter_map parse_sample
                    (String.split_on_char '\n' text)
                in
                if not plain then print_string "\027[H\027[2J";
                render addr_str samples;
                flush stdout);
            if continue () then Thread.delay interval
          done;
          Client.close c;
          !code
        with
        | Unix.Unix_error (e, _, _) ->
            Printf.eprintf "top: cannot reach daemon: %s\n"
              (Unix.error_message e);
            1
        | Protocol.Protocol_error msg ->
            Printf.eprintf "top: protocol error: %s\n" msg;
            1
        | Failure msg ->
            Printf.eprintf "top: %s\n" msg;
            1)
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"S" ~doc:"Seconds between refreshes.")
  in
  let iters_arg =
    Arg.(
      value & opt int 0
      & info [ "iters" ] ~docv:"N"
          ~doc:"Stop after $(docv) refreshes (0 = run until interrupted).")
  in
  let plain_arg =
    let doc = "No screen clearing between refreshes (for logs and CI)." in
    Arg.(value & flag & info [ "plain" ] ~doc)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running daemon, built on the metrics op: request \
          rate, queue depths, per-op latency quantiles, cache hit rates \
          and per-family throughput, refreshed until interrupted.")
    Term.(
      const run $ socket_arg $ port_arg $ interval_arg $ iters_arg $ plain_arg)

let () =
  let info =
    Cmd.info "hardness" ~version:"1.0"
      ~doc:"Machine-checked constructions from Hardness of Distributed Optimization (PODC 2019)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            verify_cmd;
            reduction_cmd;
            replay_cmd;
            sweep_cmd;
            profile_cmd;
            serve_cmd;
            client_cmd;
            top_cmd;
            Bench_diff.cmd;
          ]))
