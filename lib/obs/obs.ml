(* Telemetry core.  Three layers:
   - a global name registry (mutex-protected) interning counter / span /
     histogram names to dense ids, shared by every domain;
   - per-domain accumulators in Domain.DLS (int arrays for counters,
     bucket cells for histograms, a span tree + open-span stack), each
     registered globally at first use so [report] can find them;
   - a merge step that folds every domain's accumulators into one
     deterministic report (order-independent sums, name-sorted output).
   Hot paths touch only the enabled flag and domain-local state. *)

module Jsonx = Ch_json.Jsonx

let enabled_flag =
  ref
    (match Sys.getenv_opt "CH_OBS" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | _ -> false)

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

module Clock = struct
  let now_ns () = Monotonic_clock.now ()

  let seconds_since t0 =
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9
end

let registry_lock = Mutex.create ()

(* ---- name interning ---- *)

type names = {
  tbl : (string, int) Hashtbl.t;
  mutable ordered : string list; (* reverse interning order *)
  mutable count : int;
}

let new_names () = { tbl = Hashtbl.create 32; ordered = []; count = 0 }
let counter_names = new_names ()
let span_names = new_names ()
let hist_names = new_names ()

let intern names name =
  Mutex.lock registry_lock;
  let id =
    match Hashtbl.find_opt names.tbl name with
    | Some id -> id
    | None ->
        let id = names.count in
        Hashtbl.add names.tbl name id;
        names.ordered <- name :: names.ordered;
        names.count <- id + 1;
        id
  in
  Mutex.unlock registry_lock;
  id

(* caller must hold registry_lock, or be single-threaded (sink emission
   takes the lock; report runs under it) *)
let name_of names id =
  List.nth names.ordered (names.count - 1 - id)

let locked_name names id =
  Mutex.lock registry_lock;
  let n = name_of names id in
  Mutex.unlock registry_lock;
  n

type counter = int
type span = int
type histogram = int

let counter name = intern counter_names name
let span name = intern span_names name
let histogram name = intern hist_names name

(* ---- per-domain state ---- *)

type node = {
  nspan : int;
  mutable ncount : int;
  mutable nns : int64;
  nchildren : (int, node) Hashtbl.t;
}

let new_node nspan =
  { nspan; ncount = 0; nns = 0L; nchildren = Hashtbl.create 4 }

type hcell = {
  hbuckets : int array; (* 64 log2 buckets *)
  mutable hcount : int;
  mutable hsum : int;
  mutable hmax : int;
}

let new_hcell () =
  { hbuckets = Array.make 64 0; hcount = 0; hsum = 0; hmax = min_int }

type dstate = {
  mutable dcounters : int array;
  mutable dhists : hcell option array;
  droot : node;
  (* innermost first; [timed] distinguishes with_span frames (pop
     accumulates elapsed time) from with_ctx frames (position only) *)
  mutable dstack : (node * int64) list;
  ddomain : int;
  mutable dtrace : string option;
}

let all_states : dstate list ref = ref []

let dls_key =
  Domain.DLS.new_key (fun () ->
      let st =
        {
          dcounters = Array.make 64 0;
          dhists = Array.make 16 None;
          droot = new_node (-1);
          dstack = [];
          ddomain = (Domain.self () :> int);
          dtrace = None;
        }
      in
      Mutex.lock registry_lock;
      all_states := st :: !all_states;
      Mutex.unlock registry_lock;
      st)

let state () = Domain.DLS.get dls_key

let grown old fill n =
  let len = Array.length old in
  if n < len then old
  else begin
    let next = ref (max 16 (2 * len)) in
    while n >= !next do
      next := 2 * !next
    done;
    let fresh = Array.make !next fill in
    Array.blit old 0 fresh 0 len;
    fresh
  end

let sat_add a b =
  let s = a + b in
  if s < 0 && a >= 0 && b >= 0 then max_int else s

(* ---- counters ---- *)

let incr c n =
  if !enabled_flag then begin
    let n = if n < 0 then 0 else n in
    let st = state () in
    if c >= Array.length st.dcounters then
      st.dcounters <- grown st.dcounters 0 c;
    st.dcounters.(c) <- sat_add st.dcounters.(c) n
  end

let bump c = incr c 1

(* ---- histograms ---- *)

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 1 and x = ref v in
    while !x > 1 do
      x := !x lsr 1;
      Stdlib.incr b
    done;
    min !b 63
  end

let observe h v =
  if !enabled_flag then begin
    let st = state () in
    if h >= Array.length st.dhists then st.dhists <- grown st.dhists None h;
    let cell =
      match st.dhists.(h) with
      | Some c -> c
      | None ->
          let c = new_hcell () in
          st.dhists.(h) <- Some c;
          c
    in
    cell.hbuckets.(bucket_of v) <- cell.hbuckets.(bucket_of v) + 1;
    cell.hcount <- cell.hcount + 1;
    cell.hsum <- sat_add cell.hsum (max v 0);
    if v > cell.hmax then cell.hmax <- v
  end

(* ---- sink ---- *)

let sink_lock = Mutex.create ()
let sink : (string -> unit) option ref = ref None

let set_sink s =
  Mutex.lock sink_lock;
  sink := s;
  Mutex.unlock sink_lock

let sink_installed () = !sink <> None

let emit line =
  if !sink <> None then begin
    Mutex.lock sink_lock;
    (match !sink with Some f -> f line | None -> ());
    Mutex.unlock sink_lock
  end

let jsonl oc line =
  output_string oc line;
  output_char oc '\n'

(* The pid keeps apart the processes whose captures are concatenated —
   a client and the daemon it called — so [Spanview] pairs each
   process's opens and closes on their own stack. *)
let emit_span_event ev sid st =
  if !sink <> None then
    let open Jsonx in
    let span = Str (locked_name span_names sid) in
    let trace =
      match st.dtrace with Some t -> [ ("trace", Str t) ] | None -> []
    in
    emit
      (to_string
         (Obj
            ([ ("ev", Str ev); ("span", span); ("domain", Int st.ddomain);
               ("pid", Int (Unix.getpid ())) ]
            @ trace
            @ [ ("t_ns", Int (Int64.to_int (Clock.now_ns ()))) ])))

(* ---- spans ---- *)

let child_node parent sid =
  match Hashtbl.find_opt parent.nchildren sid with
  | Some n -> n
  | None ->
      let n = new_node sid in
      Hashtbl.add parent.nchildren sid n;
      n

let with_span sid f =
  if not !enabled_flag then f ()
  else begin
    let st = state () in
    let parent =
      match st.dstack with (n, _) :: _ -> n | [] -> st.droot
    in
    let node = child_node parent sid in
    node.ncount <- node.ncount + 1;
    emit_span_event "span_open" sid st;
    st.dstack <- (node, Clock.now_ns ()) :: st.dstack;
    Fun.protect
      ~finally:(fun () ->
        (match st.dstack with
        | (n, t0) :: rest when n == node ->
            n.nns <- Int64.add n.nns (Int64.sub (Clock.now_ns ()) t0);
            st.dstack <- rest
        | _ ->
            (* unbalanced (reset under an open span): drop the stack
               rather than misattribute time *)
            st.dstack <- []);
        emit_span_event "span_close" sid st)
      f
  end

(* ---- pool context ---- *)

type ctx = int list (* span-id path, root first *)

let current_ctx () =
  if not !enabled_flag then []
  else List.rev_map (fun (n, _) -> n.nspan) (state ()).dstack

let with_ctx ctx f =
  if (not !enabled_flag) || ctx = [] then f ()
  else begin
    let st = state () in
    let saved = st.dstack in
    (* resolve the submitter's span path in this domain's tree, creating
       nodes as needed without bumping counts or timing them — the
       submitter's own with_span frames account for the wall time *)
    let node = List.fold_left child_node st.droot ctx in
    st.dstack <- [ (node, Int64.min_int) ];
    Fun.protect ~finally:(fun () -> st.dstack <- saved) f
  end

(* ---- trace context ---- *)

(* One slot per domain, not per systhread: threads sharing a domain also
   share its span stack, so trace attribution has exactly the same
   tolerance as span nesting under concurrent systhreads. *)
let set_trace t = (state ()).dtrace <- t
let current_trace () = (state ()).dtrace

let with_trace t f =
  let st = state () in
  let saved = st.dtrace in
  st.dtrace <- t;
  Fun.protect ~finally:(fun () -> st.dtrace <- saved) f

(* ---- reports ---- *)

type span_report = {
  sp_name : string;
  sp_count : int;
  sp_ns : int64;
  sp_children : span_report list;
}

type bucket = { b_lo : int; b_hi : int; b_count : int }

type hist_report = {
  h_name : string;
  h_count : int;
  h_sum : int;
  h_max : int;
  h_buckets : bucket list;
}

type report = {
  r_enabled : bool;
  r_counters : (string * int) list;
  r_spans : span_report list;
  r_hists : hist_report list;
}

(* merge one tree level across domains; caller holds registry_lock *)
let rec merge_children (tbls : (int, node) Hashtbl.t list) : span_report list =
  let ids =
    List.concat_map (fun t -> Hashtbl.fold (fun k _ acc -> k :: acc) t []) tbls
    |> List.sort_uniq compare
  in
  ids
  |> List.map (fun sid ->
         let nodes = List.filter_map (fun t -> Hashtbl.find_opt t sid) tbls in
         {
           sp_name = name_of span_names sid;
           sp_count = List.fold_left (fun a n -> sat_add a n.ncount) 0 nodes;
           sp_ns = List.fold_left (fun a n -> Int64.add a n.nns) 0L nodes;
           sp_children = merge_children (List.map (fun n -> n.nchildren) nodes);
         })
  |> List.sort (fun a b -> compare a.sp_name b.sp_name)

let bucket_bounds i =
  if i = 0 then (min_int, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let report () =
  Mutex.lock registry_lock;
  let states = !all_states in
  let counters =
    List.mapi
      (fun rev_i name ->
        let id = counter_names.count - 1 - rev_i in
        let v =
          List.fold_left
            (fun a st ->
              if id < Array.length st.dcounters then sat_add a st.dcounters.(id)
              else a)
            0 states
        in
        (name, v))
      counter_names.ordered
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let spans = merge_children (List.map (fun st -> st.droot.nchildren) states) in
  let hists =
    List.mapi
      (fun rev_i name ->
        let id = hist_names.count - 1 - rev_i in
        let cells =
          List.filter_map
            (fun st ->
              if id < Array.length st.dhists then st.dhists.(id) else None)
            states
        in
        let buckets =
          List.init 64 (fun b ->
              let c =
                List.fold_left (fun a cell -> a + cell.hbuckets.(b)) 0 cells
              in
              let lo, hi = bucket_bounds b in
              { b_lo = lo; b_hi = hi; b_count = c })
          |> List.filter (fun b -> b.b_count > 0)
        in
        {
          h_name = name;
          h_count = List.fold_left (fun a c -> a + c.hcount) 0 cells;
          h_sum = List.fold_left (fun a c -> sat_add a c.hsum) 0 cells;
          h_max =
            List.fold_left (fun a c -> max a c.hmax) min_int cells
            |> (fun m -> if m = min_int then 0 else m);
          h_buckets = buckets;
        })
      hist_names.ordered
    |> List.sort (fun a b -> compare a.h_name b.h_name)
  in
  Mutex.unlock registry_lock;
  { r_enabled = !enabled_flag; r_counters = counters; r_spans = spans; r_hists = hists }

let reset () =
  Mutex.lock registry_lock;
  List.iter
    (fun st ->
      Array.fill st.dcounters 0 (Array.length st.dcounters) 0;
      Array.fill st.dhists 0 (Array.length st.dhists) None;
      Hashtbl.reset st.droot.nchildren;
      st.dstack <- [])
    !all_states;
  Mutex.unlock registry_lock

(* ---- quantiles ---- *)

let quantile h q =
  if h.h_count <= 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.h_count))) in
    let rec go seen = function
      | [] -> max h.h_max 0
      | b :: rest ->
          let seen = seen + b.b_count in
          if seen >= rank then max b.b_hi 0 else go seen rest
    in
    go 0 h.h_buckets
  end

(* ---- time series ---- *)

module Series = struct
  type sample = { s_t_ns : int64; s_report : report }
  type t = { ring : sample option array; mutable head : int; mutable len : int }

  let create ?(capacity = 120) () =
    let capacity = max 2 capacity in
    { ring = Array.make capacity None; head = 0; len = 0 }

  let capacity t = Array.length t.ring
  let length t = t.len

  let sample ?now_ns t =
    let now = match now_ns with Some n -> n | None -> Clock.now_ns () in
    t.ring.(t.head) <- Some { s_t_ns = now; s_report = report () };
    t.head <- (t.head + 1) mod Array.length t.ring;
    if t.len < Array.length t.ring then t.len <- t.len + 1

  (* i = 0 is the oldest retained sample, i = len - 1 the newest *)
  let get t i =
    let cap = Array.length t.ring in
    let idx = ((t.head - t.len + i) mod cap + cap) mod cap in
    match t.ring.(idx) with Some s -> s | None -> invalid_arg "Series.get"

  let newest t = get t (t.len - 1)
  let oldest t = get t 0

  let window_s t =
    if t.len < 2 then 0.
    else Int64.to_float (Int64.sub (newest t).s_t_ns (oldest t).s_t_ns) /. 1e9

  let counter_value r name =
    match List.assoc_opt name r.r_counters with Some v -> v | None -> 0

  let delta t name =
    if t.len < 2 then 0
    else
      max 0
        (counter_value (newest t).s_report name
        - counter_value (oldest t).s_report name)

  let rate t name =
    let w = window_s t in
    if w <= 0. then 0. else float_of_int (delta t name) /. w

  let find_hist r name = List.find_opt (fun h -> h.h_name = name) r.r_hists

  let hist_total t name =
    if t.len = 0 then None else find_hist (newest t).s_report name

  (* windowed histogram: newest cumulative buckets minus oldest.  The
     max field cannot be windowed from cumulative state; it keeps the
     newest cumulative max (documented log-scale approximation). *)
  let hist_delta t name =
    if t.len < 2 then None
    else
      match find_hist (newest t).s_report name with
      | None -> None
      | Some hn ->
          let old_h = find_hist (oldest t).s_report name in
          let old_bucket lo =
            match old_h with
            | None -> 0
            | Some ho -> (
                match List.find_opt (fun b -> b.b_lo = lo) ho.h_buckets with
                | Some b -> b.b_count
                | None -> 0)
          in
          let buckets =
            List.filter_map
              (fun b ->
                let c = b.b_count - old_bucket b.b_lo in
                if c > 0 then Some { b with b_count = c } else None)
              hn.h_buckets
          in
          let oc, os =
            match old_h with Some h -> (h.h_count, h.h_sum) | None -> (0, 0)
          in
          Some
            {
              hn with
              h_count = max 0 (hn.h_count - oc);
              h_sum = max 0 (hn.h_sum - os);
              h_buckets = buckets;
            }
end

(* ---- rendering ---- *)

let report_json r =
  let open Jsonx in
  let rec span sp =
    Obj
      [
        ("name", Str sp.sp_name); ("count", Int sp.sp_count);
        ("total_ns", Int (Int64.to_int sp.sp_ns));
        ("children", Arr (List.map span sp.sp_children));
      ]
  in
  let bucket bk =
    Obj
      [
        ("lo", Int (max bk.b_lo 0)); ("hi", Int bk.b_hi);
        ("count", Int bk.b_count);
      ]
  in
  let hist h =
    Obj
      [
        ("name", Str h.h_name); ("count", Int h.h_count); ("sum", Int h.h_sum);
        ("max", Int h.h_max); ("buckets", Arr (List.map bucket h.h_buckets));
      ]
  in
  let counter (name, v) = Obj [ ("name", Str name); ("value", Int v) ] in
  Obj
    [
      ("enabled", Bool r.r_enabled);
      ("counters", Arr (List.map counter r.r_counters));
      ("spans", Arr (List.map span r.r_spans));
      ("histograms", Arr (List.map hist r.r_hists));
    ]

let ms ns = Int64.to_float ns /. 1e6

let pp_profile ?wall_ns ppf r =
  let span_total =
    List.fold_left (fun a sp -> Int64.add a sp.sp_ns) 0L r.r_spans
  in
  let base = match wall_ns with Some w when w > 0L -> w | _ -> span_total in
  let basef = Int64.to_float (max base 1L) in
  let pct ns = 100. *. Int64.to_float ns /. basef in
  Format.fprintf ppf "span tree (100%% = %.3f ms%s):@."
    (ms base)
    (match wall_ns with Some _ -> " wall" | None -> " of top-level spans");
  let rec tree indent sp =
    Format.fprintf ppf "  %s%-*s %10.3f ms %6.1f%%  x%d@." indent
      (max 1 (32 - String.length indent))
      sp.sp_name (ms sp.sp_ns) (pct sp.sp_ns) sp.sp_count;
    let child_ns =
      List.fold_left (fun a c -> Int64.add a c.sp_ns) 0L sp.sp_children
    in
    List.iter (tree (indent ^ "  ")) sp.sp_children;
    if sp.sp_children <> [] then
      let self = Int64.sub sp.sp_ns child_ns in
      if pct self >= 0.05 then
        Format.fprintf ppf "  %s  %-*s %10.3f ms %6.1f%%@." indent
          (max 1 (32 - String.length indent - 2))
          "(self)" (ms self) (pct self)
  in
  List.iter (tree "") r.r_spans;
  (match wall_ns with
  | Some _ ->
      Format.fprintf ppf "attributed to spans: %.1f%% of wall@."
        (pct span_total)
  | None -> ());
  let nonzero = List.filter (fun (_, v) -> v > 0) r.r_counters in
  if nonzero <> [] then begin
    Format.fprintf ppf "counters:@.";
    nonzero
    |> List.sort (fun (an, a) (bn, b) ->
           match compare b a with 0 -> compare an bn | c -> c)
    |> List.iter (fun (name, v) ->
           Format.fprintf ppf "  %-40s %12d@." name v)
  end;
  let live = List.filter (fun h -> h.h_count > 0) r.r_hists in
  if live <> [] then begin
    Format.fprintf ppf "histograms:@.";
    List.iter
      (fun h ->
        Format.fprintf ppf "  %-40s n=%d sum=%d max=%d avg=%.1f@." h.h_name
          h.h_count h.h_sum h.h_max
          (float_of_int h.h_sum /. float_of_int (max 1 h.h_count));
        List.iter
          (fun bk ->
            Format.fprintf ppf "    [%d..%d] %d@." (max bk.b_lo 0) bk.b_hi
              bk.b_count)
          h.h_buckets)
      live
  end
