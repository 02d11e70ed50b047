module Jsonx = Ch_json.Jsonx
module Obs = Ch_obs.Obs
open Protocol

let c_requests = Obs.counter "serve.requests"
let c_warm_hits = Obs.counter "serve.requests.warm"
let c_overloaded = Obs.counter "serve.requests.overloaded"
let c_deadline = Obs.counter "serve.requests.deadline"
let c_errors = Obs.counter "serve.requests.errors"
let sp_request = Obs.span "serve_request"

(* queue wait and per-op service time land in separate histograms so the
   exposition can answer "is latency the queue or the work" *)
let h_queue_wait = Obs.histogram "serve.queue.wait_us"
let h_queue_depth = Obs.histogram "serve.queue.depth"

let op_tags =
  [
    "ping"; "catalog"; "stats"; "metrics"; "health"; "verify"; "reduction";
    "sweep-status";
  ]

(* pre-interned per-op service-time histograms: interning takes the
   registry mutex, which has no place on the request path *)
let op_hists =
  List.map (fun tag -> (tag, Obs.histogram ("serve.op." ^ tag ^ ".us"))) op_tags

let op_hist tag = List.assoc tag op_hists

type addr = Unix_socket of string | Tcp of int

type config = {
  cfg_addr : addr;
  cfg_workers : int;
  cfg_queue_depth : int;
  cfg_store_dir : string option;
  cfg_obs_out : string option;
  cfg_sample_period_s : float;
}

type t = {
  cfg : config;
  warm : Warm.t;
  sched : Scheduler.t;
  listen_fd : Unix.file_descr;
  stopping : bool Atomic.t;
  conns : (Unix.file_descr * Thread.t) list ref;
  conns_lock : Mutex.t;
  mutable accept_thread : Thread.t option;
  obs_oc : out_channel option;
  mutable stopped : bool;
  stop_lock : Mutex.t;
  series : Obs.Series.t;
  started_ns : int64;
  mutable sampler_thread : Thread.t option;
}

let warm t = t.warm

(* ------------------------------------------------------ daemon-state ops *)

let exec_stats t =
  Jsonx.Obj
    [
      ("warm_entries", Jsonx.Int (Warm.entries t.warm));
      ("tables_seeded", Jsonx.Int (Warm.tables_seeded t.warm));
      ("queue_depth", Jsonx.Int (Scheduler.depth t.sched));
      ("workers", Jsonx.Int t.cfg.cfg_workers);
      ("queue_bound", Jsonx.Int t.cfg.cfg_queue_depth);
      ( "store",
        match t.cfg.cfg_store_dir with
        | Some d -> Jsonx.Str d
        | None -> Jsonx.Null );
    ]

let uptime_s t = Obs.Clock.seconds_since t.started_ns

(* Gauges the counter registry cannot carry: live queue state, warm
   entries, derived rates.  Cache hit rates come from the PR 6 counter
   pairs [cache.<kind>.queries] / [cache.<kind>.builds]. *)
let metrics_gauges t (r : Obs.report) =
  let find name =
    match List.assoc_opt name r.Obs.r_counters with Some v -> v | None -> 0
  in
  let base =
    [
      Expose.gauge "serve.uptime_seconds" (uptime_s t);
      Expose.gauge "serve.queue_depth"
        (float_of_int (Scheduler.depth t.sched));
      Expose.gauge "serve.running" (float_of_int (Scheduler.running t.sched));
      Expose.gauge "serve.workers" (float_of_int t.cfg.cfg_workers);
      Expose.gauge "serve.warm_entries" (float_of_int (Warm.entries t.warm));
      Expose.gauge "serve.requests_per_second"
        (Obs.Series.rate t.series "serve.requests");
      Expose.gauge "serve.sampler_window_seconds"
        (Obs.Series.window_s t.series);
      Expose.gauge "serve.sampler_samples"
        (float_of_int (Obs.Series.length t.series));
    ]
  in
  let per_client =
    List.map
      (fun (client, n) ->
        Expose.gauge
          ~labels:[ ("client", string_of_int client) ]
          "serve.queue_depth_client" (float_of_int n))
      (Scheduler.depths t.sched)
  in
  let warm_rate =
    let reqs = find "serve.requests" in
    if reqs <= 0 then []
    else
      [
        Expose.gauge "serve.warm_rate"
          (float_of_int (find "serve.requests.warm") /. float_of_int reqs);
      ]
  in
  let cache_rates =
    List.filter_map
      (fun (name, q) ->
        if
          String.starts_with ~prefix:"cache." name
          && String.ends_with ~suffix:".queries" name
          && q > 0
        then begin
          let kind = String.sub name 6 (String.length name - 6 - 8) in
          let builds = find ("cache." ^ kind ^ ".builds") in
          Some
            (Expose.gauge
               ~labels:[ ("kind", kind) ]
               "cache.hit_rate"
               (1. -. (float_of_int builds /. float_of_int q)))
        end
        else None)
      r.Obs.r_counters
  in
  base @ per_client @ warm_rate @ cache_rates

let metrics_text t =
  let r = Obs.report () in
  Expose.render ~gauges:(metrics_gauges t r) ~series:t.series r

let exec_metrics t =
  Jsonx.Obj
    [
      ("text", Jsonx.Str (metrics_text t));
      ("samples", Jsonx.Int (Obs.Series.length t.series));
      ("window_s", Jsonx.Float (Obs.Series.window_s t.series));
    ]

let exec_health t =
  Jsonx.Obj
    [
      ("status", Jsonx.Str "ok");
      ("pid", Jsonx.Int (Unix.getpid ()));
      ("uptime_s", Jsonx.Float (uptime_s t));
      ("queue_depth", Jsonx.Int (Scheduler.depth t.sched));
      ("running", Jsonx.Int (Scheduler.running t.sched));
      ("workers", Jsonx.Int t.cfg.cfg_workers);
      ("warm_entries", Jsonx.Int (Warm.entries t.warm));
      ("samples", Jsonx.Int (Obs.Series.length t.series));
    ]

let op_tag = function
  | Ping -> "ping"
  | Catalog -> "catalog"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Health -> "health"
  | Verify _ -> "verify"
  | Reduction _ -> "reduction"
  | Sweep_status _ -> "sweep-status"

(* Execute one request (already past admission).  [t0] is the admission
   timestamp — deadlines measure queueing plus service; the JSONL event
   reports queue wait and execution separately.  The whole request runs
   under the client's trace id, so every span event it emits (scheduler,
   engine, solvers) carries the id the client chose. *)
let exec t rq t0 =
  Obs.with_trace rq.rq_trace @@ fun () ->
  Obs.bump c_requests;
  (* execution starts now: everything before was queue wait *)
  let texec = Obs.Clock.now_ns () in
  let queue_us =
    Int64.to_int (Int64.div (Int64.max 0L (Int64.sub texec t0)) 1000L)
  in
  Obs.observe h_queue_wait queue_us;
  let failed code msg =
    Obs.bump (if code = Deadline_exceeded then c_deadline else c_errors);
    (false, Error (code, msg))
  in
  let warm_flag, outcome =
    match rq.rq_deadline_ms with
    | Some d when Obs.Clock.seconds_since t0 *. 1000. >= float_of_int d ->
        failed Deadline_exceeded (Printf.sprintf "deadline %dms" d)
    | _ -> (
        let daemon body = Result.Ok (false, body) in
        match
          Obs.with_span sp_request (fun () ->
              match rq.rq_op with
              | Ping -> daemon (Jsonx.Obj [ ("pong", Jsonx.Bool true) ])
              | Stats -> daemon (exec_stats t)
              | Metrics -> daemon (exec_metrics t)
              | Health -> daemon (exec_health t)
              | op -> Ops.exec t.warm op)
        with
        | Ok (warm_flag, body) -> (warm_flag, Payload body)
        | Error (code, msg) -> failed code msg
        | exception e -> failed Internal (Printexc.to_string e))
  in
  if warm_flag then Obs.bump c_warm_hits;
  let exec_us = int_of_float (Obs.Clock.seconds_since texec *. 1e6) in
  Obs.observe (op_hist (op_tag rq.rq_op)) exec_us;
  let micros =
    int_of_float (Obs.Clock.seconds_since t0 *. 1e6)
  in
  let status =
    match outcome with
    | Payload _ -> "ok"
    | Error (code, _) -> error_code_to_string code
  in
  if Obs.sink_installed () then
    Obs.emit
      (Jsonx.to_string
         (Jsonx.Obj
            ([
               ("ev", Jsonx.Str "serve_request");
               ("op", Jsonx.Str (op_tag rq.rq_op));
               ("id", Jsonx.Int rq.rq_id);
               ("status", Jsonx.Str status);
               ("warm", Jsonx.Bool warm_flag);
               ("queue_us", Jsonx.Int queue_us);
               ("exec_us", Jsonx.Int exec_us);
               ("micros", Jsonx.Int micros);
             ]
            @
            match rq.rq_trace with
            | Some tr -> [ ("trace", Jsonx.Str tr) ]
            | None -> [])));
  { rs_id = rq.rq_id; rs_outcome = outcome; rs_warm = warm_flag; rs_micros = micros }

(* ---------------------------------------------------------------- batches *)

(* distinct scheduler client id per accepted connection, so the
   round-robin dispatcher can interleave batches fairly *)
let next_client = Atomic.make 0

let serve_batch ?(client = 0) t reqs =
  let n = List.length reqs in
  let slots = Array.make n None in
  let remaining = ref n in
  let m = Mutex.create () in
  let done_ = Condition.create () in
  let resolve i r =
    Mutex.lock m;
    slots.(i) <- Some r;
    decr remaining;
    if !remaining = 0 then Condition.signal done_;
    Mutex.unlock m
  in
  List.iteri
    (fun i rq ->
      let t0 = Obs.Clock.now_ns () in
      Obs.observe h_queue_depth (Scheduler.depth t.sched);
      let accepted =
        Scheduler.submit ~client t.sched (fun () -> resolve i (exec t rq t0))
      in
      if not accepted then begin
        Obs.bump c_overloaded;
        resolve i
          {
            rs_id = rq.rq_id;
            rs_outcome =
              Error (Overloaded, "admission queue full, retry later");
            rs_warm = false;
            rs_micros = 0;
          }
      end)
    reqs;
  Mutex.lock m;
  while !remaining > 0 do
    Condition.wait done_ m
  done;
  Mutex.unlock m;
  Array.to_list (Array.map Option.get slots)

let bad_batch msg =
  [
    {
      rs_id = -1;
      rs_outcome = Error (Bad_request, msg);
      rs_warm = false;
      rs_micros = 0;
    };
  ]

(* ------------------------------------------------------------ connections *)

let write_all fd s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write fd b !off (n - !off) in
    if w = 0 then raise Exit;
    off := !off + w
  done

(* Minimal one-shot HTTP answer for scrapers pointed straight at the
   daemon port: no framing library, no keep-alive.  Anything beyond
   /metrics and /health is a 404 — the JSON protocol is the real API. *)
let answer_http t path =
  let status, ctype, body =
    match path with
    | "/metrics" | "/" ->
        ("200 OK", "text/plain; version=0.0.4", metrics_text t)
    | "/health" -> ("200 OK", "text/plain", "ok\n")
    | _ -> ("404 Not Found", "text/plain", "not found\n")
  in
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status ctype (String.length body) body

(* A response batch over the frame cap cannot be sent: each payload in
   it becomes a typed error naming the size, and the connection stays
   open for the next batch.  A batch whose errors alone are over the cap
   gets one error for the whole batch. *)
let encode_capped responses =
  let s = Protocol.encode_responses responses in
  let size = String.length s in
  if size <= Protocol.max_frame then s
  else
    let msg =
      Printf.sprintf "response batch of %d bytes exceeds the %d-byte frame limit"
        size Protocol.max_frame
    in
    let refused =
      Protocol.encode_responses
        (List.map
           (fun r ->
             match r.rs_outcome with
             | Payload _ ->
                 { r with rs_outcome = Error (Bad_request, msg); rs_warm = false }
             | Error _ -> r)
           responses)
    in
    if String.length refused <= Protocol.max_frame then refused
    else Protocol.encode_responses (bad_batch msg)

let serve_payload t ~client fd payload =
  let responses =
    match Protocol.decode_requests payload with
    | Ok reqs -> serve_batch ~client t reqs
    | Error msg -> bad_batch msg
  in
  Protocol.write_frame fd (encode_capped responses)

let handle_connection t fd =
  let client = Atomic.fetch_and_add next_client 1 in
  let rec loop () =
    match Protocol.read_frame fd with
    | None -> ()
    | Some payload ->
        serve_payload t ~client fd payload;
        loop ()
  in
  (try
     (* the first read sniffs for a plain-text scraper; subsequent
        frames on a kept connection are always length-prefixed *)
     match Protocol.read_first fd with
     | None -> ()
     | Some (Protocol.Http_get path) -> write_all fd (answer_http t path)
     | Some (Protocol.First_frame payload) ->
         serve_payload t ~client fd payload;
         loop ()
   with
  | Protocol.Protocol_error msg -> (
      try Protocol.write_frame fd (Protocol.encode_responses (bad_batch msg))
      with _ -> ())
  | _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stopping) then
      match Unix.accept t.listen_fd with
      | fd, _ ->
          (* [stop]'s wake connection lands here: drop it and re-check
             the flag instead of serving it *)
          if Atomic.get t.stopping then
            try Unix.close fd with Unix.Unix_error _ -> ()
          else begin
            let th = Thread.create (fun () -> handle_connection t fd) () in
            Mutex.lock t.conns_lock;
            t.conns := (fd, th) :: !(t.conns);
            Mutex.unlock t.conns_lock;
            loop ()
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
  in
  loop ()

(* ----------------------------------------------------------- start / stop *)

let bind_listen = function
  | Unix_socket path ->
      if Sys.file_exists path then (try Unix.unlink path with _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      fd

(* Periodic snapshots into the ring: the exposition derives req/s and
   live latency quantiles from deltas between retained samples.  Sleeps
   in short slices so [stop] never waits a full period for the join. *)
let sampler_loop t =
  Obs.Series.sample t.series;
  while not (Atomic.get t.stopping) do
    let slept = ref 0. in
    while !slept < t.cfg.cfg_sample_period_s && not (Atomic.get t.stopping) do
      let slice = Float.min 0.05 (t.cfg.cfg_sample_period_s -. !slept) in
      Thread.delay slice;
      slept := !slept +. slice
    done;
    if not (Atomic.get t.stopping) then Obs.Series.sample t.series
  done

let start cfg =
  let obs_oc =
    match cfg.cfg_obs_out with
    | None -> None
    | Some file ->
        let oc = open_out file in
        Obs.set_enabled true;
        Obs.set_sink (Some (Obs.jsonl oc));
        Some oc
  in
  let warm = Warm.create ~store_dir:cfg.cfg_store_dir in
  let sched =
    Scheduler.create ~workers:cfg.cfg_workers ~queue_depth:cfg.cfg_queue_depth
  in
  let listen_fd = bind_listen cfg.cfg_addr in
  let t =
    {
      cfg;
      warm;
      sched;
      listen_fd;
      stopping = Atomic.make false;
      conns = ref [];
      conns_lock = Mutex.create ();
      accept_thread = None;
      obs_oc;
      stopped = false;
      stop_lock = Mutex.create ();
      series = Obs.Series.create ();
      started_ns = Obs.Clock.now_ns ();
      sampler_thread = None;
    }
  in
  if cfg.cfg_sample_period_s > 0. then
    t.sampler_thread <- Some (Thread.create sampler_loop t);
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let stop t =
  Mutex.lock t.stop_lock;
  let already = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.stop_lock;
  if not already then begin
    Atomic.set t.stopping true;
    Option.iter Thread.join t.sampler_thread;
    (* wake the thread blocked in accept(2) with a throwaway connection
       — close() doesn't unblock it, and shutdown() on an AF_UNIX
       listening socket is ENOTCONN, so self-connect is the one portable
       wake-up *)
    (try
       let domain, sa =
         match t.cfg.cfg_addr with
         | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
         | Tcp port ->
             (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
       in
       let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
       (try Unix.connect fd sa with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* finish queued work — in-flight batches resolve and flush *)
    Scheduler.drain t.sched;
    (* wake connection readers with EOF, let them exit, then close *)
    Mutex.lock t.conns_lock;
    let conns = !(t.conns) in
    Mutex.unlock t.conns_lock;
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun (_, th) -> Thread.join th) conns;
    Warm.persist t.warm;
    (match t.cfg.cfg_addr with
    | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp _ -> ());
    match t.obs_oc with
    | Some oc ->
        Obs.set_sink None;
        close_out oc
    | None -> ()
  end
