(* Span-tree reconstruction from a captured JSONL event stream.  The
   sink writes span_open/span_close events stamped with (pid, domain,
   trace, t_ns); this module decodes them and folds them back into the
   same shape [Obs.report] produces live, including events from two
   processes (a client and the daemon it called) in one stream. *)

module Jsonx = Ch_json.Jsonx

type event = {
  e_open : bool;
  e_span : string;
  e_pid : int;
  e_domain : int;
  e_trace : string option;
  e_t_ns : int64;
}

(* ---- decoding: the inverse of Obs's span-event lines ---- *)

let of_json j =
  let str n = Option.bind (Jsonx.mem n j) Jsonx.as_str in
  let int n = Option.bind (Jsonx.mem n j) Jsonx.as_int in
  match (str "ev", str "span", int "t_ns") with
  | Some (("span_open" | "span_close") as ev), Some sp, Some t ->
      Some
        {
          e_open = ev = "span_open";
          e_span = sp;
          e_pid = Option.value (int "pid") ~default:0;
          e_domain = Option.value (int "domain") ~default:0;
          e_trace = str "trace";
          e_t_ns = Int64.of_int t;
        }
  | _ -> None

let of_jsonl lines =
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Jsonx.parse line with
        | Error msg -> Error (lineno, msg)
        | Ok j ->
            let acc = match of_json j with Some e -> e :: acc | None -> acc in
            go (lineno + 1) acc rest)
  in
  go 1 [] lines

(* completed span occurrence *)
type tree = {
  tname : string;
  topen : int64;
  tclose : int64;
  ttrace : string option;
  tchildren : tree list; (* reverse completion order *)
}

type frame = {
  fname : string;
  fopen : int64;
  ftrace : string option;
  mutable fdone : tree list;
}

type root = { r_pid : int; r_domain : int; r_tree : tree }

let dur t = Int64.sub t.tclose t.topen

(* ---- per-(pid, domain) open/close folding ---- *)

let fold_stream events =
  let events =
    List.stable_sort (fun a b -> Int64.compare a.e_t_ns b.e_t_ns) events
  in
  let stacks : (int * int, frame list ref) Hashtbl.t = Hashtbl.create 8 in
  let roots = ref [] in
  let stack_of pid domain =
    let key = (pid, domain) in
    match Hashtbl.find_opt stacks key with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks key s;
        s
  in
  let complete pid domain stack fr t =
    let t = if t < fr.fopen then fr.fopen else t in
    let tr =
      {
        tname = fr.fname;
        topen = fr.fopen;
        tclose = t;
        ttrace = fr.ftrace;
        tchildren = fr.fdone;
      }
    in
    match !stack with
    | parent :: _ -> parent.fdone <- tr :: parent.fdone
    | [] -> roots := { r_pid = pid; r_domain = domain; r_tree = tr } :: !roots
  in
  let last_t = ref 0L in
  List.iter
    (fun ev ->
      if ev.e_t_ns > !last_t then last_t := ev.e_t_ns;
      let stack = stack_of ev.e_pid ev.e_domain in
      if ev.e_open then
        stack :=
          { fname = ev.e_span; fopen = ev.e_t_ns; ftrace = ev.e_trace;
            fdone = [] }
          :: !stack
      else begin
        (* close: pop to the matching frame, closing intermediates at
           the same instant; an unmatched close is dropped (the open
           predates the capture window) *)
        let rec unwind () =
          match !stack with
          | [] -> ()
          | fr :: rest ->
              stack := rest;
              complete ev.e_pid ev.e_domain stack fr ev.e_t_ns;
              if fr.fname <> ev.e_span then unwind ()
        in
        if List.exists (fun fr -> fr.fname = ev.e_span) !stack then unwind ()
      end)
    events;
  (* frames still open at end of stream close at the last event time *)
  Hashtbl.iter
    (fun (pid, domain) stack ->
      let rec drain () =
        match !stack with
        | [] -> ()
        | fr :: rest ->
            stack := rest;
            complete pid domain stack fr !last_t;
            drain ()
      in
      drain ())
    stacks;
  !roots

(* ---- cross-process joining ---- *)

(* effective trace of a node: its own, else inherited from the nearest
   traced ancestor (threaded down during the search) *)
let eff_trace inherited t =
  match t.ttrace with Some _ as tr -> tr | None -> inherited

let contains outer inner =
  outer.topen <= inner.topen && inner.tclose <= outer.tclose

let trace_compatible a b =
  match (a, b) with Some x, Some y -> x = y | _ -> true

(* innermost node of [t] whose interval contains [target] and whose
   effective trace is compatible; [None] when even [t] does not
   contain it *)
let rec innermost_containing inherited t target ttrace =
  if not (contains t target) then None
  else
    let tr = eff_trace inherited t in
    let deeper =
      List.fold_left
        (fun acc c ->
          match acc with
          | Some _ -> acc
          | None -> innermost_containing tr c target ttrace)
        None t.tchildren
    in
    match deeper with
    | Some _ -> deeper
    | None -> if trace_compatible tr ttrace then Some t else None

(* Attach roots from one (pid, domain) stream under enclosing spans of
   another: a daemon's serve_request interval sits inside the client's
   request span (one monotonic clock per machine), so containment plus
   trace compatibility joins them.  Largest roots place first — a
   container must already be placed before its contents can attach, and
   a chain (client ⊃ daemon ⊃ worker) assembles outside-in, each root
   grafting at the innermost compatible span of a placed tree. *)
let join roots =
  let ordered =
    List.stable_sort (fun a b -> Int64.compare (dur b.r_tree) (dur a.r_tree))
      roots
  in
  let placed : root list ref = ref [] in
  let graft host target ttrace =
    match innermost_containing None host target ttrace with
    | None -> None
    | Some node ->
        let rec rebuild t =
          if t == node then
            Some { t with tchildren = target :: t.tchildren }
          else
            let rec sub acc = function
              | [] -> None
              | c :: rest -> (
                  match rebuild c with
                  | Some c' -> Some (List.rev_append acc (c' :: rest))
                  | None -> sub (c :: acc) rest)
            in
            Option.map
              (fun cs -> { t with tchildren = cs })
              (sub [] t.tchildren)
        in
        rebuild host
  in
  List.iter
    (fun r ->
      let rec try_hosts acc = function
        | [] -> placed := r :: List.rev acc
        | h :: rest ->
            if
              (h.r_pid, h.r_domain) <> (r.r_pid, r.r_domain)
              && contains h.r_tree r.r_tree
            then
              match graft h.r_tree r.r_tree r.r_tree.ttrace with
              | Some t' ->
                  placed := List.rev_append acc ({ h with r_tree = t' } :: rest)
              | None -> try_hosts (h :: acc) rest
            else try_hosts (h :: acc) rest
      in
      try_hosts [] !placed)
    ordered;
  List.rev_map (fun r -> r.r_tree) !placed

(* ---- aggregation to Obs.span_report ---- *)

let rec merge_trees (ts : tree list) : Obs.span_report list =
  let names =
    List.map (fun t -> t.tname) ts |> List.sort_uniq compare
  in
  List.map
    (fun name ->
      let same = List.filter (fun t -> t.tname = name) ts in
      {
        Obs.sp_name = name;
        sp_count = List.length same;
        sp_ns = List.fold_left (fun a t -> Int64.add a (dur t)) 0L same;
        sp_children = merge_trees (List.concat_map (fun t -> t.tchildren) same);
      })
    names

let forest events = merge_trees (join (fold_stream events))

let to_report events =
  {
    Obs.r_enabled = true;
    r_counters = [];
    r_spans = forest events;
    r_hists = [];
  }
