(* The telemetry layer's own contract: schedule-independent reports
   (the same workload on a 1-worker and a 4-worker pool merges to the
   same counters, histogram buckets, and span-tree shape), saturating
   counters, log2 bucket boundaries, and a truly dark disabled path. *)

open Ch_core
module Obs = Ch_obs.Obs

let c_items = Obs.counter "test.items"
let c_weight = Obs.counter "test.weight"
let h_vals = Obs.histogram "test.vals"
let sp_outer = Obs.span "test.outer"
let sp_inner = Obs.span "test.inner"

(* One deterministic workload: under an outer span, fan 64 items over
   the pool; each item bumps/increments/observes and opens a nested
   span.  Everything derives from the item index, never the schedule. *)
let workload pool =
  Obs.with_span sp_outer (fun () ->
      ignore
        (Pool.parallel_chunks pool ~lo:0 ~hi:64 (fun lo hi ->
             for i = lo to hi - 1 do
               Obs.with_span sp_inner (fun () ->
                   Obs.bump c_items;
                   Obs.incr c_weight (i * 3);
                   Obs.observe h_vals (i * i))
             done;
             0)))

type sspan = S of string * int * sspan list

let strip_times r =
  let rec sp s =
    S (s.Obs.sp_name, s.Obs.sp_count, List.map sp s.Obs.sp_children)
  in
  ( r.Obs.r_counters,
    List.map sp r.Obs.r_spans,
    List.map
      (fun h ->
        (h.Obs.h_name, h.Obs.h_count, h.Obs.h_sum, h.Obs.h_max, h.Obs.h_buckets))
      r.Obs.r_hists )

let run_report pool =
  Obs.reset ();
  workload pool;
  strip_times (Obs.report ())

let test_merge_determinism () =
  Obs.set_enabled true;
  let pool1 = Pool.create ~jobs:1 () and pool4 = Pool.create ~jobs:4 () in
  let r1 = run_report pool1 and r4 = run_report pool4 in
  Alcotest.(check bool)
    "report identical under jobs=1 and jobs=4 (modulo times)" true (r1 = r4);
  let counters, spans, _ = r4 in
  Alcotest.(check int) "items" 64 (List.assoc "test.items" counters);
  Alcotest.(check int) "weight" (3 * 2016) (List.assoc "test.weight" counters);
  (match List.find_opt (fun (S (n, _, _)) -> n = "test.outer") spans with
  | Some (S (_, count, children)) ->
      Alcotest.(check int) "outer count" 1 count;
      Alcotest.(check bool)
        "inner nested under outer with count 64" true
        (List.mem (S ("test.inner", 64, [])) children)
  | None -> Alcotest.fail "no test.outer span in the merged report");
  Pool.shutdown pool1;
  Pool.shutdown pool4

let test_counter_saturation () =
  Obs.set_enabled true;
  Obs.reset ();
  Obs.incr c_items (max_int - 1);
  Obs.incr c_items max_int;
  Obs.incr c_items (-5) (* negative deltas are clamped to 0 *);
  let r = Obs.report () in
  Alcotest.(check int)
    "sum saturates at max_int" max_int
    (List.assoc "test.items" r.Obs.r_counters)

let test_histogram_buckets () =
  Obs.set_enabled true;
  Obs.reset ();
  (* one sample per interesting boundary: <=0 land in bucket 0, and
     bucket i >= 1 covers [2^(i-1), 2^i - 1] *)
  List.iter (Obs.observe h_vals) [ -3; 0; 1; 2; 3; 4; 7; 8; 1024; 2047 ];
  let r = Obs.report () in
  match List.find_opt (fun h -> h.Obs.h_name = "test.vals") r.Obs.r_hists with
  | None -> Alcotest.fail "no test.vals histogram"
  | Some h ->
      Alcotest.(check int) "count" 10 h.Obs.h_count;
      Alcotest.(check int) "max" 2047 h.Obs.h_max;
      (* -3 clamps to 0 in the sum *)
      Alcotest.(check int) "sum" (0 + 0 + 1 + 2 + 3 + 4 + 7 + 8 + 1024 + 2047)
        h.Obs.h_sum;
      let count_of lo =
        match List.find_opt (fun b -> b.Obs.b_lo <= lo && lo <= b.Obs.b_hi) h.Obs.h_buckets with
        | Some b -> b.Obs.b_count
        | None -> 0
      in
      Alcotest.(check int) "bucket [..0] holds -3 and 0" 2 (count_of 0);
      Alcotest.(check int) "bucket [1..1]" 1 (count_of 1);
      Alcotest.(check int) "bucket [2..3] holds 2 and 3" 2 (count_of 2);
      Alcotest.(check int) "bucket [4..7] holds 4 and 7" 2 (count_of 4);
      Alcotest.(check int) "bucket [8..15] holds 8" 1 (count_of 8);
      Alcotest.(check int) "bucket [1024..2047] holds both" 2 (count_of 1024)

let test_disabled_dark () =
  Obs.set_enabled false;
  Obs.reset ();
  Obs.bump c_items;
  Obs.incr c_weight 1000;
  Obs.observe h_vals 42;
  Obs.with_span sp_outer (fun () -> ());
  let r = Obs.report () in
  Alcotest.(check bool) "report says disabled" false r.Obs.r_enabled;
  List.iter
    (fun (name, v) ->
      Alcotest.(check int) (name ^ " stays zero") 0 v)
    r.Obs.r_counters;
  Alcotest.(check (list string)) "no spans recorded" []
    (List.map (fun s -> s.Obs.sp_name) r.Obs.r_spans);
  Alcotest.(check bool) "no histogram samples" true
    (List.for_all (fun h -> h.Obs.h_count = 0) r.Obs.r_hists);
  Obs.set_enabled true

(* Quantile vs brute force: on any sample set, the log2-bucket quantile
   is an upper bound on the exact order statistic, within a factor of 2
   (the bucket width guarantee). *)
let test_quantile_vs_brute_force () =
  Obs.set_enabled true;
  Obs.reset ();
  let st = ref 123 in
  let next () =
    (* xorshift; spread across several bucket magnitudes *)
    st := !st lxor (!st lsl 13);
    st := !st lxor (!st lsr 7);
    st := !st lxor (!st lsl 17);
    abs !st mod 10_000
  in
  let values = List.init 500 (fun _ -> next ()) in
  List.iter (Obs.observe h_vals) values;
  let r = Obs.report () in
  let h =
    match
      List.find_opt (fun h -> h.Obs.h_name = "test.vals") r.Obs.r_hists
    with
    | Some h -> h
    | None -> Alcotest.fail "no test.vals histogram"
  in
  let sorted = List.sort compare values |> Array.of_list in
  List.iter
    (fun q ->
      let rank =
        max 1 (int_of_float (Float.ceil (q *. float_of_int h.Obs.h_count)))
      in
      let exact = sorted.(rank - 1) in
      let est = Obs.quantile h q in
      if not (est >= exact && est <= max ((2 * exact) - 1) 0) then
        Alcotest.failf "q=%.2f: estimate %d outside [%d, %d]" q est exact
          (max ((2 * exact) - 1) 0))
    [ 0.01; 0.25; 0.5; 0.9; 0.99; 1.0 ];
  (* empty histogram and out-of-range q *)
  Obs.reset ();
  let r = Obs.report () in
  let h =
    List.find (fun h -> h.Obs.h_name = "test.vals") r.Obs.r_hists
  in
  Alcotest.(check int) "empty histogram" 0 (Obs.quantile h 0.5)

(* The ring: wraparound, counter deltas/rates over the retained window,
   and windowed histograms. *)
let test_series_ring () =
  Obs.set_enabled true;
  Obs.reset ();
  let s = Obs.Series.create ~capacity:4 () in
  Alcotest.(check int) "capacity" 4 (Obs.Series.capacity s);
  Alcotest.(check int) "empty delta" 0 (Obs.Series.delta s "test.items");
  Alcotest.(check (float 0.)) "empty window" 0. (Obs.Series.window_s s);
  (* sample i at t = i seconds, after adding i to the counter and
     observing one histogram value of i *)
  for i = 1 to 10 do
    Obs.incr c_items i;
    Obs.observe h_vals i;
    Obs.Series.sample ~now_ns:(Int64.of_int (i * 1_000_000_000)) s
  done;
  Alcotest.(check int) "wrapped to capacity" 4 (Obs.Series.length s);
  (* retained window is samples 7..10: cumulative counter went from
     1+..+7 = 28 to 1+..+10 = 55 *)
  Alcotest.(check int) "delta over window" 27 (Obs.Series.delta s "test.items");
  Alcotest.(check (float 1e-6)) "window seconds" 3. (Obs.Series.window_s s);
  Alcotest.(check (float 1e-6)) "rate" 9. (Obs.Series.rate s "test.items");
  Alcotest.(check int) "unknown counter" 0 (Obs.Series.delta s "no.such");
  (match Obs.Series.hist_total s "test.vals" with
  | Some h -> Alcotest.(check int) "cumulative count" 10 h.Obs.h_count
  | None -> Alcotest.fail "no cumulative histogram");
  (match Obs.Series.hist_delta s "test.vals" with
  | Some d ->
      Alcotest.(check int) "windowed count" 3 d.Obs.h_count;
      Alcotest.(check int) "windowed sum" (8 + 9 + 10) d.Obs.h_sum;
      Alcotest.(check int)
        "windowed buckets hold the window's samples" 3
        (List.fold_left (fun a b -> a + b.Obs.b_count) 0 d.Obs.h_buckets)
  | None -> Alcotest.fail "no windowed histogram");
  Alcotest.(check bool) "unknown histogram" true
    (Obs.Series.hist_delta s "no.such" = None)

(* Spanview: two process streams with the same trace join into one
   tree by time containment; a root with a different trace stays
   separate; stray closes are dropped. *)
let test_spanview_join () =
  let ev ?trace ~pid ~t name opened =
    {
      Ch_obs.Spanview.e_open = opened;
      e_span = name;
      e_pid = pid;
      e_domain = 0;
      e_trace = trace;
      e_t_ns = Int64.of_int t;
    }
  in
  let events =
    [
      (* client process: one traced request spanning the whole window *)
      ev ~trace:"t-1" ~pid:1 ~t:0 "client_request" true;
      (* server process: the traced request executes inside it *)
      ev ~trace:"t-1" ~pid:2 ~t:10 "serve_request" true;
      ev ~trace:"t-1" ~pid:2 ~t:20 "engine" true;
      ev ~trace:"t-1" ~pid:2 ~t:30 "engine" false;
      ev ~trace:"t-1" ~pid:2 ~t:90 "serve_request" false;
      (* a differently-traced root inside the same interval: must NOT
         graft under client_request *)
      ev ~trace:"t-2" ~pid:3 ~t:40 "other" true;
      ev ~trace:"t-2" ~pid:3 ~t:50 "other" false;
      (* a stray close with no matching open: dropped *)
      ev ~pid:1 ~t:60 "stray" false;
      ev ~trace:"t-1" ~pid:1 ~t:100 "client_request" false;
    ]
  in
  let roots = Ch_obs.Spanview.forest events in
  let names = List.map (fun s -> s.Obs.sp_name) roots in
  Alcotest.(check (list string))
    "two roots: joined tree + foreign trace" [ "client_request"; "other" ]
    (List.sort compare names);
  let client =
    List.find (fun s -> s.Obs.sp_name = "client_request") roots
  in
  (match client.Obs.sp_children with
  | [ sr ] ->
      Alcotest.(check string) "server grafted under client" "serve_request"
        sr.Obs.sp_name;
      Alcotest.(check (list string))
        "engine nested in serve_request" [ "engine" ]
        (List.map (fun s -> s.Obs.sp_name) sr.Obs.sp_children)
  | cs ->
      Alcotest.failf "client_request has %d children, expected 1"
        (List.length cs));
  (* same-trace half-open intervals: an unclosed span closes at the
     last event time and still forms a root *)
  let dangling =
    [ ev ~pid:9 ~t:0 "lonely" true; ev ~pid:9 ~t:5 "inner" true ]
  in
  match Ch_obs.Spanview.forest dangling with
  | [ { Obs.sp_name = "lonely"; sp_children = [ i ]; _ } ] ->
      Alcotest.(check string) "inner kept" "inner" i.Obs.sp_name
  | _ -> Alcotest.fail "dangling opens not closed at stream end"

(* The span-event decoder reads back what the sink wrote: the trace id
   survives byte for byte, a line that is JSON but no span event is
   skipped, and a corrupted line is reported by its line number. *)
let test_spanview_decode () =
  let trace = "t-caf\xc3\xa9\001\"\\" in
  let lines = ref [] in
  Obs.set_enabled true;
  Obs.set_sink (Some (fun l -> lines := l :: !lines));
  Obs.with_trace (Some trace) (fun () ->
      Obs.with_span sp_outer (fun () -> Obs.with_span sp_inner ignore));
  Obs.set_sink None;
  let lines = List.rev !lines in
  let decode lines =
    match Ch_obs.Spanview.of_jsonl lines with
    | Ok evs ->
        List.map (fun e -> Ch_obs.Spanview.(e.e_open, e.e_span, e.e_trace)) evs
    | Error (n, e) -> Alcotest.failf "line %d: %s" n e
  in
  let expected =
    List.map
      (fun (opened, span) -> (opened, span, Some trace))
      [ (true, "test.outer"); (true, "test.inner"); (false, "test.inner");
        (false, "test.outer") ]
  in
  let pp = Alcotest.(list (triple bool string (option string))) in
  Alcotest.check pp "sink lines decode to the spans" expected (decode lines);
  let other = {|{"ev": "serve_request", "op": "verify", "id": 1}|} in
  Alcotest.check pp "non-span lines are skipped" expected
    (decode (other :: lines));
  let cut l = String.sub l 0 (String.length l / 2) in
  match
    Ch_obs.Spanview.of_jsonl
      (List.mapi (fun i l -> if i = 2 then cut l else l) lines)
  with
  | Error (3, _) -> ()
  | _ -> Alcotest.fail "the corrupted third line is not reported"

let () =
  Alcotest.run "obs"
    [
      ( "obs",
        [
          Alcotest.test_case "merge determinism jobs=1 vs jobs=4" `Quick
            test_merge_determinism;
          Alcotest.test_case "counter saturation" `Quick test_counter_saturation;
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_histogram_buckets;
          Alcotest.test_case "disabled mode records nothing" `Quick
            test_disabled_dark;
        ] );
      ( "series",
        [
          Alcotest.test_case "quantile vs brute force" `Quick
            test_quantile_vs_brute_force;
          Alcotest.test_case "ring wraparound, delta, rate" `Quick
            test_series_ring;
        ] );
      ( "spanview",
        [
          Alcotest.test_case "cross-stream trace join" `Quick
            test_spanview_join;
          Alcotest.test_case "jsonl decoder" `Quick test_spanview_decode;
        ] );
    ]
