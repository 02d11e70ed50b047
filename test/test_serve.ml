(* Tests for the serve daemon: the JSON codec and framing round-trip
   under qcheck (torn and oversized frames degrade to clean protocol
   errors, never exceptions), and an in-process daemon on a temp Unix
   socket serves verdicts bit-identical to the in-process oracle —
   cold, warm, across engines, and under concurrent clients — while
   backpressure and deadlines surface as typed error responses. *)

open Ch_core
open Ch_sweep
open Ch_serve
module Jsonx = Ch_json.Jsonx
module Cache = Ch_solvers.Cache
module Obs = Ch_obs.Obs

let qt = QCheck_alcotest.to_alcotest

(* ---------------------------------------------------------------- *)
(* Helpers                                                          *)
(* ---------------------------------------------------------------- *)

let cat = lazy (Ch_lbgraphs.Families.catalog ())
let fam_of id k = (Registry.find_exn (Lazy.force cat) id).Registry.scratch k

let tmp_counter = ref 0

let temp_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ch_test_serve_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir f =
  let d = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* One fresh daemon per test: own socket, own warm registry, optional
   store, stopped (idempotently) on the way out. *)
let with_server ?(workers = 2) ?(queue_depth = 16) ?store_dir f =
  with_temp_dir (fun dir ->
      let sock = Filename.concat dir "serve.sock" in
      let t =
        Server.start
          {
            Server.cfg_addr = Server.Unix_socket sock;
            cfg_workers = workers;
            cfg_queue_depth = queue_depth;
            cfg_store_dir = store_dir;
            cfg_obs_out = None;
            cfg_sample_period_s = 0.05;
          }
      in
      Fun.protect
        ~finally:(fun () -> Server.stop t)
        (fun () -> f t (Server.Unix_socket sock)))

let verify ?deadline ?trace ?(engine = Protocol.Auto)
    ?(vmode = Protocol.Exhaustive) ~id family k =
  {
    Protocol.rq_id = id;
    rq_op = Protocol.Verify { family; k; vmode; engine };
    rq_deadline_ms = deadline;
    rq_trace = trace;
  }

let simple ~id op =
  { Protocol.rq_id = id; rq_op = op; rq_deadline_ms = None; rq_trace = None }

let body_exn rs =
  match rs.Protocol.rs_outcome with
  | Protocol.Payload body -> body
  | Protocol.Error (c, m) ->
      Alcotest.failf "request %d failed %s: %s" rs.Protocol.rs_id
        (Protocol.error_code_to_string c)
        m

let field name body =
  match Jsonx.mem name body with
  | Some v -> v
  | None -> Alcotest.failf "response body lacks %S" name

let digest_of rs =
  match Jsonx.as_str (field "digest" (body_exn rs)) with
  | Some d -> d
  | None -> Alcotest.fail "digest is not a string"

let oracle_digest id k ~mode =
  Sweep.digest (fst (Framework.verdicts (Framework.Scratch (fam_of id k)) mode))

(* ---------------------------------------------------------------- *)
(* Jsonx: printer/parser round-trip                                 *)
(* ---------------------------------------------------------------- *)

(* valid UTF-8: scalars of every encoded length, control characters
   included, surrogates excluded *)
let utf8_string =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        int_range 0 0x7f;
        int_range 0x80 0x7ff;
        int_range 0x800 0xd7ff;
        int_range 0xe000 0xffff;
        int_range 0x10000 0x10ffff;
      ]
  in
  map
    (fun cps ->
      let b = Buffer.create 16 in
      List.iter (fun c -> Buffer.add_utf_8_uchar b (Uchar.of_int c)) cps;
      Buffer.contents b)
    (list_size (int_bound 8) scalar)

let byte_string = QCheck.Gen.(string_size ~gen:char (int_bound 12))

(* documents whose strings and keys are drawn from [str] *)
let json_gen str =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Jsonx.Null;
        map (fun b -> Jsonx.Bool b) bool;
        map (fun i -> Jsonx.Int i) (int_range (-1_000_000_000) 1_000_000_000);
        map (fun f -> Jsonx.Float f) (float_range (-1e9) 1e9);
        map (fun s -> Jsonx.Str s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           oneof
             [
               leaf;
               map (fun l -> Jsonx.Arr l) (list_size (int_bound 4) (self (n / 2)));
               map
                 (fun l -> Jsonx.Obj l)
                 (list_size (int_bound 4) (pair str (self (n / 2))));
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"jsonx print/parse roundtrip"
    (QCheck.make ~print:Jsonx.to_string (json_gen utf8_string)) (fun j ->
      Jsonx.parse (Jsonx.to_string j) = Ok j
      && Jsonx.parse (Jsonx.to_document j) = Ok j)

let prop_json_bytes =
  QCheck.Test.make ~count:500 ~name:"jsonx prints any bytes as valid UTF-8"
    (QCheck.make ~print:Jsonx.to_string (json_gen byte_string)) (fun j ->
      List.for_all
        (fun doc -> String.is_valid_utf_8 doc && Result.is_ok (Jsonx.parse doc))
        [ Jsonx.to_string j; Jsonx.to_document j ])

(* strings that exercise every escape class, including the \uXXXX
   decoder with a surrogate pair *)
let test_json_escapes () =
  let j =
    Jsonx.Obj
      [
        ("quote\"back\\slash", Jsonx.Str "tab\tnl\ncr\rnul\x00bell\x07");
        ("unicode", Jsonx.Str "caf\xc3\xa9");
      ]
  in
  (match Jsonx.parse (Jsonx.to_string j) with
  | Ok j' -> Alcotest.(check bool) "escape roundtrip" true (j = j')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Jsonx.parse {|"\u00e9 \ud83d\ude00"|} with
  | Ok (Jsonx.Str s) ->
      Alcotest.(check string) "uXXXX to UTF-8" "\xc3\xa9 \xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Jsonx.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "nul"; "\"abc"; "1 2"; "{\"a\" 1}"; "" ]

(* ---------------------------------------------------------------- *)
(* Framing: pure round-trip, truncation, oversize                   *)
(* ---------------------------------------------------------------- *)

let prop_frame_roundtrip =
  QCheck.Test.make ~count:300 ~name:"frame/unframe roundtrip"
    (QCheck.make
       ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size ~gen:char (int_bound 2000)))
    (fun s ->
      let f = Protocol.frame s in
      match Protocol.unframe (f ^ "trailing") ~pos:0 with
      | Protocol.Frame (p, next) -> p = s && next = String.length f
      | _ -> false)

let prop_frame_truncated =
  QCheck.Test.make ~count:300 ~name:"every strict prefix is Need_more"
    (QCheck.make
       ~print:(fun (s, salt) -> Printf.sprintf "(%S, %d)" s salt)
       QCheck.Gen.(
         pair (string_size ~gen:char (int_bound 500)) (int_bound 1000)))
    (fun (s, salt) ->
      let f = Protocol.frame s in
      let cut = salt mod String.length f in
      Protocol.unframe (String.sub f 0 cut) ~pos:0 = Protocol.Need_more)

let test_unframe_too_large () =
  let n = Protocol.max_frame + 1 in
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  (match Protocol.unframe (Bytes.to_string b) ~pos:0 with
  | Protocol.Too_large m -> Alcotest.(check int) "declared length" n m
  | _ -> Alcotest.fail "oversized header not rejected");
  Alcotest.check_raises "frame refuses oversize"
    (Invalid_argument "Protocol.frame: payload too large") (fun () ->
      ignore (Protocol.frame (String.make n 'x')))

(* fd-level framing: clean EOF at a boundary is None; EOF mid-header,
   mid-payload, or an oversized declared length raise Protocol_error *)
let test_read_frame_errors () =
  let with_pair f =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close a with Unix.Unix_error _ -> ());
        try Unix.close b with Unix.Unix_error _ -> ())
      (fun () -> f a b)
  in
  with_pair (fun a b ->
      Protocol.write_frame a "hello";
      Unix.close a;
      (match Protocol.read_frame b with
      | Some p -> Alcotest.(check string) "payload" "hello" p
      | None -> Alcotest.fail "EOF before the frame");
      Alcotest.(check bool) "clean EOF at boundary" true
        (Protocol.read_frame b = None));
  List.iter
    (fun torn ->
      with_pair (fun a b ->
          if String.length torn > 0 then
            ignore (Unix.write_substring a torn 0 (String.length torn));
          Unix.close a;
          match Protocol.read_frame b with
          | _ -> Alcotest.failf "torn frame (%d bytes) not rejected"
                   (String.length torn)
          | exception Protocol.Protocol_error _ -> ()))
    [
      String.sub (Protocol.frame "0123456789") 0 2 (* mid-header *);
      String.sub (Protocol.frame "0123456789") 0 7 (* mid-payload *);
      "\xff\xff\xff\xff" (* declared length far above max_frame *);
    ]

(* ---------------------------------------------------------------- *)
(* Request/response codec                                           *)
(* ---------------------------------------------------------------- *)

let sample_requests =
  [
    { Protocol.rq_id = 0; rq_op = Protocol.Ping; rq_deadline_ms = None;
      rq_trace = None };
    { Protocol.rq_id = 1; rq_op = Protocol.Catalog; rq_deadline_ms = Some 250;
      rq_trace = None };
    { Protocol.rq_id = 2; rq_op = Protocol.Stats; rq_deadline_ms = None;
      rq_trace = Some "trace-abc" };
    simple ~id:9 Protocol.Metrics;
    simple ~id:10 Protocol.Health;
    verify ~id:3 "mds" 2;
    verify ~id:4 ~deadline:5 ~engine:Protocol.Incremental
      ~vmode:(Protocol.Sampled { seed = 7; samples = 40 })
      "steiner-node-weighted" 3;
    verify ~id:5 ~engine:Protocol.Scratch ~trace:"t/esc\"ape" "maxis" 2;
    {
      Protocol.rq_id = 7;
      rq_op =
        Protocol.Reduction
          { family = "mds"; k = 2; exhaustive = true; pairs = 4; seed = 1 };
      rq_deadline_ms = None;
      rq_trace = None;
    };
    {
      Protocol.rq_id = 8;
      rq_op =
        Protocol.Sweep_status
          {
            family = "mds";
            k = 2;
            shards = 4;
            vmode = Protocol.Sampled { seed = 1; samples = 9 };
          };
      rq_deadline_ms = None;
      rq_trace = None;
    };
  ]

let test_request_codec () =
  match Protocol.decode_requests (Protocol.encode_requests sample_requests) with
  | Ok rs ->
      Alcotest.(check bool) "request roundtrip" true (rs = sample_requests)
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_response_codec () =
  let rs =
    [
      {
        Protocol.rs_id = 1;
        rs_outcome = Protocol.Payload (Jsonx.Obj [ ("pong", Jsonx.Bool true) ]);
        rs_warm = true;
        rs_micros = 12;
      };
      {
        Protocol.rs_id = 2;
        rs_outcome = Protocol.Error (Protocol.Overloaded, "queue full");
        rs_warm = false;
        rs_micros = 0;
      };
    ]
  in
  (match Protocol.decode_responses (Protocol.encode_responses rs) with
  | Ok got -> Alcotest.(check bool) "response roundtrip" true (got = rs)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Protocol.error_code_to_string c)
        true
        (Protocol.error_code_of_string (Protocol.error_code_to_string c)
        = Some c))
    [
      Protocol.Bad_request;
      Protocol.Unknown_family;
      Protocol.Overloaded;
      Protocol.Deadline_exceeded;
      Protocol.Unsupported;
      Protocol.Internal;
    ]

let test_request_decode_rejects () =
  List.iter
    (fun bad ->
      match Protocol.decode_requests bad with
      | Ok _ -> Alcotest.failf "accepted ill-shaped batch %S" bad
      | Error _ -> ())
    [
      "[]";
      "{}";
      {|{"requests": 3}|};
      {|{"requests": [{"op": "verify"}]}|};
      {|{"requests": [{"id": 1}]}|};
      {|{"requests": [{"id": 1, "op": "no-such-op"}]}|};
      {|{"requests": [{"id": 1, "op": "verify", "family": "mds"}]}|};
      {|{"requests": [{"id": 1, "op": "simulate", "family": "mds", "k": 2, "pairs": 3, "seed": 0}]}|};
      "{\"requests\": [{\"id\": 1, \"op\": \"ping\", \"trace\": \"t-\xff\"}]}";
    ]

(* ---------------------------------------------------------------- *)
(* Integration: daemon on a temp socket vs the in-process oracle    *)
(* ---------------------------------------------------------------- *)

let test_ping_catalog_stats () =
  with_server (fun _t addr ->
      let c = Client.connect ~retries:20 addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let rs =
            Client.roundtrip c
              [
                simple ~id:7 Protocol.Ping;
                simple ~id:8 Protocol.Catalog;
                simple ~id:9 Protocol.Stats;
              ]
          in
          Alcotest.(check (list int))
            "ids echoed in order" [ 7; 8; 9 ]
            (List.map (fun r -> r.Protocol.rs_id) rs);
          let ping, catalog, stats =
            match rs with
            | [ a; b; c ] -> (a, b, c)
            | _ -> Alcotest.fail "expected 3 responses"
          in
          Alcotest.(check (option bool))
            "pong" (Some true)
            (Jsonx.as_bool (field "pong" (body_exn ping)));
          let fams =
            match Jsonx.as_arr (field "families" (body_exn catalog)) with
            | Some l -> l
            | None -> Alcotest.fail "families is not an array"
          in
          Alcotest.(check bool)
            "catalog lists every registry family" true
            (List.length fams = List.length (Registry.all (Lazy.force cat)));
          Alcotest.(check bool)
            "catalog includes mds" true
            (List.exists
               (fun f ->
                 Option.bind (Jsonx.mem "id" f) Jsonx.as_str = Some "mds")
               fams);
          Alcotest.(check (option int))
            "stats reports worker count" (Some 2)
            (Jsonx.as_int (field "workers" (body_exn stats)))))

(* Cold then warm: the first verify computes, the repeat is served from
   the warm registry, and both digests equal the in-process oracle. *)
let test_cold_then_warm_matches_oracle () =
  Cache.clear ();
  with_temp_dir @@ fun store_dir ->
  with_server ~store_dir (fun _t addr ->
      let expect = oracle_digest "mds" 2 ~mode:Pairs.Exhaustive in
      let c = Client.connect ~retries:20 addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let cold =
            match Client.roundtrip c [ verify ~id:1 "mds" 2 ] with
            | [ r ] -> r
            | _ -> Alcotest.fail "expected 1 response"
          in
          Alcotest.(check bool) "first service is cold" false
            cold.Protocol.rs_warm;
          Alcotest.(check string) "cold digest = oracle" expect (digest_of cold);
          let warm =
            match Client.roundtrip c [ verify ~id:2 "mds" 2 ] with
            | [ r ] -> r
            | _ -> Alcotest.fail "expected 1 response"
          in
          Alcotest.(check bool) "repeat is warm" true warm.Protocol.rs_warm;
          Alcotest.(check string) "warm digest = oracle" expect
            (digest_of warm);
          Alcotest.(check (option string))
            "warm source is the memory tier" (Some "memory")
            (Jsonx.as_str (field "source" (body_exn warm)))))

(* Four clients, each its own connection and its own socket hop, racing
   the same two families: every verdict digest equals the oracle's. *)
let test_concurrent_clients_differential () =
  Cache.clear ();
  with_server ~workers:4 (fun _t addr ->
      let jobs =
        [ ("mds", 2); ("steiner-node-weighted", 2); ("maxis", 2); ("maxcut", 2) ]
      in
      let expected =
        List.map (fun (id, k) -> oracle_digest id k ~mode:Pairs.Exhaustive) jobs
      in
      let failures = ref [] in
      let fail_lock = Mutex.create () in
      let worker (fam, k) expect =
        try
          let c = Client.connect ~retries:20 addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              for i = 0 to 2 do
                match Client.roundtrip c [ verify ~id:i fam k ] with
                | [ r ] ->
                    let d = digest_of r in
                    if d <> expect then
                      failwith
                        (Printf.sprintf "%s k=%d: digest %s <> oracle %s" fam k
                           d expect)
                | _ -> failwith "expected 1 response"
              done)
        with e ->
          Mutex.lock fail_lock;
          failures := Printexc.to_string e :: !failures;
          Mutex.unlock fail_lock
      in
      let threads =
        List.map2 (fun job exp -> Thread.create (fun () -> worker job exp) ())
          jobs expected
      in
      List.iter Thread.join threads;
      match !failures with
      | [] -> ()
      | fs -> Alcotest.failf "concurrent clients diverged: %s"
                (String.concat "; " fs))

(* The scratch and incremental engines answer a sampled verify with the
   same digest, equal to the sampled oracle — each on a fresh daemon so
   the warm registry cannot shortcut the engine under test. *)
let test_engines_agree_sampled () =
  Cache.clear ();
  let vmode = Protocol.Sampled { seed = 5; samples = 29 } in
  let mode = Pairs.Sampled { seed = 5; samples = 29 } in
  let expect = oracle_digest "steiner-node-weighted" 2 ~mode in
  let run engine =
    with_server (fun t _addr ->
        match
          Server.serve_batch t
            [ verify ~id:0 ~engine ~vmode "steiner-node-weighted" 2 ]
        with
        | [ r ] -> digest_of r
        | _ -> Alcotest.fail "expected 1 response")
  in
  Alcotest.(check string) "incremental = oracle" expect
    (run Protocol.Incremental);
  Alcotest.(check string) "scratch = oracle" expect (run Protocol.Scratch)

let test_error_responses () =
  with_server (fun t _addr ->
      (* unknown family *)
      (match Server.serve_batch t [ verify ~id:1 "no-such-family" 2 ] with
      | [ { Protocol.rs_outcome = Protocol.Error (Protocol.Unknown_family, msg); _ } ] ->
          Alcotest.(check bool) "message names the family" true
            (String.length msg > 0)
      | _ -> Alcotest.fail "unknown family not rejected");
      (* an elapsed deadline refuses the work *)
      match Server.serve_batch t [ verify ~id:2 ~deadline:0 "mds" 2 ] with
      | [ { Protocol.rs_outcome = Protocol.Error (Protocol.Deadline_exceeded, _); _ } ] ->
          ()
      | _ -> Alcotest.fail "deadline_ms=0 not refused")

(* One worker, queue depth one, a burst of eight: the admission queue
   refuses part of the burst as [overloaded] and serves the rest. *)
let test_overload_backpressure () =
  Cache.clear ();
  with_server ~workers:1 ~queue_depth:1 (fun t _addr ->
      let reqs =
        List.init 8 (fun i -> verify ~id:i "steiner-node-weighted" 2)
      in
      let rs = Server.serve_batch t reqs in
      Alcotest.(check int) "one response per request" 8 (List.length rs);
      let ok, overloaded, other =
        List.fold_left
          (fun (ok, ov, other) r ->
            match r.Protocol.rs_outcome with
            | Protocol.Payload _ -> (ok + 1, ov, other)
            | Protocol.Error (Protocol.Overloaded, _) -> (ok, ov + 1, other)
            | Protocol.Error _ -> (ok, ov, other + 1))
          (0, 0, 0) rs
      in
      Alcotest.(check int) "no other error kind" 0 other;
      Alcotest.(check bool) "some served" true (ok >= 1);
      Alcotest.(check bool) "some refused" true (overloaded >= 1))

(* Round-robin fairness: with the single worker wedged on a gate job,
   client 0 floods the queue, then client 1 submits its jobs.  A global
   FIFO would drain client 0's whole backlog before client 1's first
   job; the per-client rotation serves the two alternately, so neither
   starves. *)
let test_scheduler_fairness () =
  let sched = Scheduler.create ~workers:1 ~queue_depth:64 in
  let m = Mutex.create () in
  let cv = Condition.create () in
  let gate_open = ref false in
  let gate_running = ref false in
  let order = ref [] in
  let record tag =
    Mutex.lock m;
    order := tag :: !order;
    Mutex.unlock m
  in
  (* wedge the worker so every later submission queues behind the gate *)
  Alcotest.(check bool)
    "gate admitted" true
    (Scheduler.submit sched (fun () ->
         Mutex.lock m;
         gate_running := true;
         Condition.broadcast cv;
         while not !gate_open do
           Condition.wait cv m
         done;
         Mutex.unlock m));
  Mutex.lock m;
  while not !gate_running do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  for i = 1 to 4 do
    Alcotest.(check bool)
      "A admitted" true
      (Scheduler.submit ~client:0 sched (fun () ->
           record (Printf.sprintf "A%d" i)))
  done;
  for i = 1 to 4 do
    Alcotest.(check bool)
      "B admitted" true
      (Scheduler.submit ~client:1 sched (fun () ->
           record (Printf.sprintf "B%d" i)))
  done;
  Alcotest.(check int) "eight queued" 8 (Scheduler.depth sched);
  Alcotest.(check (list (pair int int)))
    "per-client depths" [ (0, 4); (1, 4) ]
    (Scheduler.depths sched);
  Mutex.lock m;
  gate_open := true;
  Condition.broadcast cv;
  Mutex.unlock m;
  Scheduler.drain sched;
  Alcotest.(check (list string))
    "clients alternate, FIFO within each"
    [ "A1"; "B1"; "A2"; "B2"; "A3"; "B3"; "A4"; "B4" ]
    (List.rev !order)

(* Stop under an in-flight batch: admitted jobs finish, their responses
   flush to the client, the socket file is unlinked, stop is
   idempotent, and new connections are refused. *)
let test_drain_under_load () =
  Cache.clear ();
  with_temp_dir (fun dir ->
      let sock = Filename.concat dir "serve.sock" in
      let t =
        Server.start
          {
            Server.cfg_addr = Server.Unix_socket sock;
            cfg_workers = 2;
            cfg_queue_depth = 16;
            cfg_store_dir = None;
            cfg_obs_out = None;
            cfg_sample_period_s = 0.05;
          }
      in
      let result = ref None in
      let client =
        Thread.create
          (fun () ->
            let c = Client.connect ~retries:20 (Server.Unix_socket sock) in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                let reqs = List.init 4 (fun i -> verify ~id:i "mds" 2) in
                result := Some (Client.roundtrip c reqs)))
          ()
      in
      (* let the batch get admitted, then drain while it is in flight *)
      Thread.delay 0.05;
      Server.stop t;
      Thread.join client;
      (match !result with
      | None -> Alcotest.fail "client never got its responses"
      | Some rs ->
          Alcotest.(check int) "all responses flushed" 4 (List.length rs);
          List.iter (fun r -> ignore (body_exn r)) rs);
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock);
      Server.stop t;
      (* idempotent *)
      match Client.connect (Server.Unix_socket sock) with
      | c ->
          Client.close c;
          Alcotest.fail "stopped daemon accepted a connection"
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
          ())

(* The warm state persists through the store: a second daemon on the
   same store answers its first request warm, from the store tier. *)
let test_warm_restart_from_store () =
  Cache.clear ();
  with_temp_dir (fun dir ->
      let config sock =
        {
          Server.cfg_addr = Server.Unix_socket sock;
          cfg_workers = 2;
          cfg_queue_depth = 16;
          cfg_store_dir = Some (Filename.concat dir "store");
          cfg_obs_out = None;
          cfg_sample_period_s = 0.;
        }
      in
      let expect = oracle_digest "mds" 2 ~mode:Pairs.Exhaustive in
      let sock1 = Filename.concat dir "serve1.sock" in
      let t1 = Server.start (config sock1) in
      (match Server.serve_batch t1 [ verify ~id:1 "mds" 2 ] with
      | [ r ] -> Alcotest.(check string) "first daemon" expect (digest_of r)
      | _ -> Alcotest.fail "expected 1 response");
      Server.stop t1;
      Cache.clear ();
      let sock2 = Filename.concat dir "serve2.sock" in
      let t2 = Server.start (config sock2) in
      Fun.protect
        ~finally:(fun () -> Server.stop t2)
        (fun () ->
          match Server.serve_batch t2 [ verify ~id:2 "mds" 2 ] with
          | [ r ] ->
              Alcotest.(check bool) "served warm after restart" true
                r.Protocol.rs_warm;
              Alcotest.(check string) "restart digest" expect (digest_of r);
              Alcotest.(check (option string))
                "from the store tier" (Some "store")
                (Jsonx.as_str (field "source" (body_exn r)))
          | _ -> Alcotest.fail "expected 1 response"))

(* A status query only reads the store: for a plan that was never run
   it reports no blocks and leaves a fresh store empty. *)
let test_sweep_status_reads_only () =
  with_temp_dir @@ fun store_dir ->
  with_server ~store_dir (fun t _addr ->
      let status =
        Protocol.Sweep_status
          { family = "mds"; k = 2; shards = 5; vmode = Protocol.Exhaustive }
      in
      match Server.serve_batch t [ simple ~id:1 status ] with
      | [ r ] ->
          Alcotest.(check (option int))
            "no block present" (Some 0)
            (Jsonx.as_int (field "present" (body_exn r)));
          Alcotest.(check (array string))
            "store still empty" [||] (Sys.readdir store_dir)
      | _ -> Alcotest.fail "expected 1 response")

let json =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Jsonx.to_string j))
    ( = )

(* The same op run in-process ([Ops.exec], as the CLI runs it) and sent
   to a daemon over its Unix socket: the warm flag and the payload are
   equal, value for value.  Every verify plan is distinct, so both sides
   compute it cold; the in-process side has no store, while the daemon
   writes its verdict blocks through to one, which the sweep-status
   queries at the end then read from both sides. *)
let test_ops_differential () =
  Cache.clear ();
  with_temp_dir @@ fun store_dir ->
  with_server ~store_dir (fun _t addr ->
      let verify family vmode engine =
        Protocol.Verify { family; k = 2; vmode; engine }
      in
      let sampled = Protocol.Sampled { seed = 5; samples = 29 } in
      let reduction family k pairs =
        Protocol.Reduction { family; k; exhaustive = false; pairs; seed = 41 }
      in
      let status shards =
        Protocol.Sweep_status
          { family = "mds"; k = 2; shards; vmode = Protocol.Exhaustive }
      in
      let c = Client.connect ~retries:20 addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          List.iteri
            (fun id (label, op, local_store) ->
              let served =
                match Client.roundtrip c [ simple ~id op ] with
                | [ r ] -> (r.Protocol.rs_warm, body_exn r)
                | _ -> Alcotest.fail "expected 1 response"
              in
              (match Ops.exec (Warm.create ~store_dir:local_store) op with
              | Ok local -> Alcotest.(check (pair bool json)) label local served
              | Error (_, msg) -> Alcotest.failf "%s: %s" label msg);
              (* so the comparison above covers one row per swept pair *)
              match op with
              | Protocol.Reduction _ ->
                  let body = snd served in
                  Alcotest.(check (option int))
                    (label ^ ": one row per pair")
                    (Jsonx.as_int (field "pairs" body))
                    (Option.map List.length (Jsonx.as_arr (field "rows" body)))
              | _ -> ())
            [
              ( "verify exhaustive scratch",
                verify "mds" Protocol.Exhaustive Protocol.Scratch,
                None );
              ( "verify exhaustive incremental",
                verify "maxis" Protocol.Exhaustive Protocol.Incremental,
                None );
              ( "verify sampled scratch",
                verify "steiner-node-weighted" sampled Protocol.Scratch,
                None );
              ( "verify sampled incremental",
                verify "mds" sampled Protocol.Incremental,
                None );
              ("reduction mds", reduction "mds" 2 8, None);
              ("reduction bitgadget", reduction "bitgadget" 4 2, None);
              ("sweep-status of a stored plan", status 1, Some store_dir);
              ("sweep-status of a plan never run", status 5, Some store_dir);
              ("catalog", Protocol.Catalog, None);
            ];
          (* the stored plan is the daemon's write-through of the first
             verify, so the status comparison above is of a real block *)
          match Client.roundtrip c [ simple ~id:99 (status 1) ] with
          | [ r ] ->
              Alcotest.(check (option int))
                "stored plan present" (Some 1)
                (Jsonx.as_int (field "present" (body_exn r)))
          | _ -> Alcotest.fail "expected 1 response"))

(* ---------------------------------------------------------------- *)
(* Observability: exposition format, metrics/health ops, HTTP GET,   *)
(* trace propagation                                                 *)
(* ---------------------------------------------------------------- *)

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let check_contains label text needle =
  if not (contains text needle) then
    Alcotest.failf "%s: %S not found in:\n%s" label needle text

(* the sanitizer and escaper against the exposition grammar, then a
   full render with hostile names and label values *)
let test_exposition_format () =
  Alcotest.(check string)
    "dots and dashes" "cache_mds_k2_builds"
    (Expose.sanitize_name "cache.mds-k2.builds");
  Alcotest.(check string) "leading digit" "_9lives" (Expose.sanitize_name "9lives");
  Alcotest.(check string) "empty" "_" (Expose.sanitize_name "");
  Alcotest.(check string)
    "escapes" "a\\\\b\\\"c\\nd"
    (Expose.escape_label_value "a\\b\"c\nd");
  let text =
    Expose.render
      ~gauges:[ Expose.gauge ~labels:[ ("kind", "we\"ird\n\\") ] "g.x" 1.5 ]
      {
        Obs.r_enabled = true;
        r_counters = [ ("a.b", 3) ];
        r_spans = [];
        r_hists =
          [
            {
              Obs.h_name = "lat.us";
              h_count = 4;
              h_sum = 22;
              h_max = 9;
              h_buckets =
                [
                  { Obs.b_lo = 1; b_hi = 1; b_count = 1 };
                  { Obs.b_lo = 4; b_hi = 7; b_count = 2 };
                  { Obs.b_lo = 8; b_hi = 15; b_count = 1 };
                ];
            };
          ];
      }
  in
  check_contains "counter" text "# TYPE ch_a_b counter\nch_a_b 3\n";
  check_contains "summary type" text "# TYPE ch_lat_us summary";
  check_contains "p50" text "ch_lat_us{quantile=\"0.5\"} 7";
  check_contains "p99" text "ch_lat_us{quantile=\"0.99\"} 15";
  check_contains "sum/count" text "ch_lat_us_sum 22\nch_lat_us_count 4";
  check_contains "escaped gauge" text
    "ch_g_x{kind=\"we\\\"ird\\n\\\\\"} 1.5";
  (* every non-comment line matches the exposition grammar *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        let sp = String.index line ' ' in
        let metric = String.sub line 0 sp in
        let name_end =
          match String.index_opt metric '{' with
          | Some i -> i
          | None -> String.length metric
        in
        Alcotest.(check string)
          ("sanitized: " ^ line)
          (String.sub metric 0 name_end)
          (Expose.sanitize_name (String.sub metric 0 name_end))
      end)
    (String.split_on_char '\n' text)

let with_obs_enabled f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let test_metrics_health_ops () =
  Cache.clear ();
  with_obs_enabled @@ fun () ->
  with_server (fun t _addr ->
      (* traffic first, so counters, per-op histograms and cache rates
         have something to say *)
      (match Server.serve_batch t [ verify ~id:1 "mds" 2 ] with
      | [ r ] -> ignore (body_exn r)
      | _ -> Alcotest.fail "expected 1 response");
      (* let the 0.05s sampler retain at least two snapshots *)
      Thread.delay 0.15;
      match
        Server.serve_batch t
          [ simple ~id:2 Protocol.Metrics; simple ~id:3 Protocol.Health ]
      with
      | [ m; h ] ->
          let text =
            match Jsonx.as_str (field "text" (body_exn m)) with
            | Some s -> s
            | None -> Alcotest.fail "metrics text is not a string"
          in
          check_contains "requests counter" text
            "# TYPE ch_serve_requests counter";
          check_contains "per-op latency quantiles" text
            "ch_serve_op_verify_us{quantile=\"0.5\"}";
          check_contains "queue wait summary" text
            "# TYPE ch_serve_queue_wait_us summary";
          check_contains "workers gauge" text "# TYPE ch_serve_workers gauge";
          check_contains "cache hit rate" text "ch_cache_hit_rate{kind=\"";
          check_contains "per-family throughput" text "ch_serve_family_mds_pairs ";
          Alcotest.(check bool)
            "sampler window live" true
            (match Jsonx.as_int (field "samples" (body_exn m)) with
            | Some n -> n >= 2
            | None -> false);
          Alcotest.(check (option string))
            "health ok" (Some "ok")
            (Jsonx.as_str (field "status" (body_exn h)));
          Alcotest.(check (option int))
            "health workers" (Some 2)
            (Jsonx.as_int (field "workers" (body_exn h)))
      | _ -> Alcotest.fail "expected 2 responses")

(* A plain-text scraper on the same socket: the first-read sniffer
   answers HTTP and closes, without disturbing framed clients. *)
let test_http_get () =
  with_obs_enabled @@ fun () ->
  with_server (fun _t addr ->
      let sock =
        match addr with
        | Server.Unix_socket p -> p
        | Server.Tcp _ -> Alcotest.fail "expected a unix socket"
      in
      let http path =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let req = "GET " ^ path ^ " HTTP/1.0\r\nHost: x\r\n\r\n" in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 1024 in
        let b = Bytes.create 4096 in
        let rec drain () =
          match Unix.read fd b 0 4096 with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf b 0 n;
              drain ()
        in
        drain ();
        Unix.close fd;
        Buffer.contents buf
      in
      let metrics = http "/metrics" in
      check_contains "status line" metrics "HTTP/1.0 200 OK";
      check_contains "content type" metrics "text/plain; version=0.0.4";
      check_contains "a metric" metrics "ch_serve_workers";
      check_contains "health" (http "/health") "ok";
      check_contains "404" (http "/nope") "404 Not Found";
      (* framed clients still work on the same listener afterwards *)
      let c = Client.connect ~retries:20 addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.roundtrip c [ simple ~id:1 Protocol.Ping ] with
          | [ r ] -> ignore (body_exn r)
          | _ -> Alcotest.fail "expected 1 response"))

(* End-to-end trace: a client's span events, the traced request's span
   events and its serve_request JSONL line all carry the client-chosen
   id, and the captured stream folds back into a tree rooted at
   serve_request.  The client runs in this process, so its events land
   in the daemon's capture, as a concatenated client + daemon capture
   would. *)
let test_trace_propagation () =
  Cache.clear ();
  (* a plain id; one holding a UTF-8 pair, a control byte, a quote and a
     backslash; and one holding a byte that starts no UTF-8 sequence:
     every captured line must still be valid UTF-8 and JSON *)
  List.iter
    (fun trace ->
      (* the id as every line spells it: the printer writes the stray
         byte as U+FFFD, and valid ids come back byte-equal *)
      let expect =
        match Jsonx.parse (Jsonx.to_string (Jsonx.Str trace)) with
        | Ok (Jsonx.Str s) -> s
        | _ -> Alcotest.fail "trace id does not round-trip"
      in
      if String.is_valid_utf_8 trace then Alcotest.(check string) "id read back" trace expect;
      with_temp_dir (fun dir ->
          let sock = Filename.concat dir "serve.sock" in
          let obs_file = Filename.concat dir "obs.jsonl" in
          let t =
            Server.start
              {
                Server.cfg_addr = Server.Unix_socket sock;
                cfg_workers = 1;
                cfg_queue_depth = 8;
                cfg_store_dir = None;
                cfg_obs_out = Some obs_file;
                cfg_sample_period_s = 0.;
              }
          in
          let c = Client.connect ~retries:20 (Server.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              Obs.with_trace (Some trace) (fun () ->
                  Obs.with_span (Obs.span "client_request") (fun () ->
                      match Client.roundtrip c [ verify ~id:1 ~trace "mds" 2 ] with
                      | [ r ] -> ignore (body_exn r)
                      | _ -> Alcotest.fail "expected 1 response")));
          Server.stop t;
          Obs.set_enabled false;
          let lines =
            In_channel.with_open_text obs_file In_channel.input_lines
          in
          let jstr name j = Option.bind (Jsonx.mem name j) Jsonx.as_str in
          let parsed =
            List.map
              (fun l ->
                if not (String.is_valid_utf_8 l) then
                  Alcotest.failf "invalid UTF-8 line: %S" l;
                match Jsonx.parse l with
                | Ok j -> j
                | Error e -> Alcotest.failf "invalid JSONL line (%s): %s" e l)
              lines
          in
          (* the serve_request event carries the trace *)
          Alcotest.(check bool)
            "serve_request JSONL carries trace" true
            (List.exists
               (fun j ->
                 jstr "ev" j = Some "serve_request"
                 && jstr "trace" j = Some expect
                 && Jsonx.mem "queue_us" j <> None
                 && Jsonx.mem "exec_us" j <> None)
               parsed);
          (* client and daemon span events carry it too, and fold into a
             serve_request tree *)
          let events =
            match Ch_obs.Spanview.of_jsonl lines with
            | Ok events -> events
            | Error (n, e) -> Alcotest.failf "line %d: %s" n e
          in
          List.iter
            (fun span ->
              Alcotest.(check bool)
                (Printf.sprintf "a traced %s span_open exists" span)
                true
                (List.exists
                   (fun e ->
                     e.Ch_obs.Spanview.e_open
                     && e.Ch_obs.Spanview.e_span = span
                     && e.Ch_obs.Spanview.e_trace = Some expect)
                   events))
            [ "client_request"; "serve_request" ];
          let report = Ch_obs.Spanview.to_report events in
          let rec has_span name (sp : Obs.span_report) =
            sp.Obs.sp_name = name
            || List.exists (has_span name) sp.Obs.sp_children
          in
          Alcotest.(check bool)
            "stream folds into a serve_request tree" true
            (List.exists (has_span "serve_request") report.Obs.r_spans)))
    [ "t-123"; "t-caf\xc3\xa9\001\"\\"; "t-\xff" ]

(* Four identical cold verifies in one batch on four workers: one request
   runs the engine, the other three wait for it and answer from memory. *)
let test_one_cold_run_per_plan () =
  Cache.clear ();
  with_server ~workers:4 (fun t _addr ->
      let rs =
        Server.serve_batch t
          (List.init 4 (fun id -> verify ~id ~engine:Protocol.Scratch "mds" 2))
      in
      let count p = List.length (List.filter p rs) in
      Alcotest.(check int)
        "one computed" 1
        (count (fun r ->
             Jsonx.as_str (field "source" (body_exn r)) = Some "computed"));
      Alcotest.(check int) "three warm" 3 (count (fun r -> r.Protocol.rs_warm));
      Alcotest.(check int)
        "one digest" 1
        (List.length (List.sort_uniq compare (List.map digest_of rs))))

(* A batch whose response would exceed the frame cap gets typed errors,
   and the connection then serves a ping. *)
let oversized_then_ping ~queue_depth reqs expect =
  with_server ~queue_depth (fun _t addr ->
      let c = Client.connect ~retries:20 addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          expect (Client.roundtrip c reqs);
          match Client.roundtrip c [ simple ~id:1 Protocol.Ping ] with
          | [ r ] -> ignore (body_exn r)
          | _ -> Alcotest.fail "expected 1 response"))

(* A catalog is about 4.3 KB, so 2 500 of them encode past 8 MiB: each
   request gets a typed error with its id. *)
let test_oversized_response () =
  let n = 2500 in
  oversized_then_ping ~queue_depth:n
    (List.init n (fun id -> simple ~id Protocol.Catalog))
    (fun rs ->
      Alcotest.(check (list int))
        "ids echoed" (List.init n Fun.id)
        (List.map (fun r -> r.Protocol.rs_id) rs);
      List.iter
        (fun r ->
          match r.Protocol.rs_outcome with
          | Protocol.Error (Protocol.Bad_request, msg) ->
              check_contains "size error" msg
                (Printf.sprintf "%d-byte frame limit" Protocol.max_frame)
          | _ -> Alcotest.failf "request %d: no size error" r.Protocol.rs_id)
        rs)

(* An unknown family's error lists the valid ids, about 350 bytes, so
   30 000 of them encode past 8 MiB: one error answers the batch. *)
let test_oversized_errors () =
  let n = 30_000 in
  oversized_then_ping ~queue_depth:n
    (List.init n (fun id -> verify ~id "no-such-family" 2))
    (function
      | [ { Protocol.rs_id = -1;
            rs_outcome = Protocol.Error (Protocol.Bad_request, msg); _ } ] ->
          check_contains "batch error" msg "frame limit"
      | rs -> Alcotest.failf "%d responses, expected one" (List.length rs))

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [
      ( "jsonx",
        [
          qt prop_json_roundtrip;
          qt prop_json_bytes;
          Alcotest.test_case "escapes and malformed input" `Quick
            test_json_escapes;
        ] );
      ( "framing",
        [
          qt prop_frame_roundtrip;
          qt prop_frame_truncated;
          Alcotest.test_case "oversized frames" `Quick test_unframe_too_large;
          Alcotest.test_case "torn frames on a socket" `Quick
            test_read_frame_errors;
        ] );
      ( "codec",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_codec;
          Alcotest.test_case "response roundtrip" `Quick test_response_codec;
          Alcotest.test_case "ill-shaped batches rejected" `Quick
            test_request_decode_rejects;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "ping, catalog, stats" `Quick
            test_ping_catalog_stats;
          Alcotest.test_case "cold then warm = oracle" `Quick
            test_cold_then_warm_matches_oracle;
          Alcotest.test_case "concurrent clients differential" `Quick
            test_concurrent_clients_differential;
          Alcotest.test_case "engines agree on sampled mode" `Quick
            test_engines_agree_sampled;
          Alcotest.test_case "typed error responses" `Quick
            test_error_responses;
          Alcotest.test_case "overload backpressure" `Quick
            test_overload_backpressure;
          Alcotest.test_case "scheduler round-robin fairness" `Quick
            test_scheduler_fairness;
          Alcotest.test_case "drain under load" `Quick test_drain_under_load;
          Alcotest.test_case "warm restart from the store" `Quick
            test_warm_restart_from_store;
          Alcotest.test_case "sweep-status creates nothing" `Quick
            test_sweep_status_reads_only;
          Alcotest.test_case "same op in-process and over the socket" `Quick
            test_ops_differential;
          Alcotest.test_case "one cold run per plan" `Quick
            test_one_cold_run_per_plan;
          Alcotest.test_case "oversized response batch" `Quick
            test_oversized_response;
          Alcotest.test_case "oversized error batch" `Quick
            test_oversized_errors;
        ] );
      ( "observability",
        [
          Alcotest.test_case "exposition format and escaping" `Quick
            test_exposition_format;
          Alcotest.test_case "metrics and health ops" `Quick
            test_metrics_health_ops;
          Alcotest.test_case "HTTP GET scrape" `Quick test_http_get;
          Alcotest.test_case "trace propagation and span join" `Quick
            test_trace_propagation;
        ] );
    ]
