open Ch_graph
module Obs = Ch_obs.Obs

type stats = { hits : int; misses : int }

let sp_lookup = Obs.span "cache_lookup"
let sp_build = Obs.span "cache_build"

(* One tally per prepared instance, one [kind] per cache family.  The
   local cell backs the public [stats] reader with the historical
   semantics (prepare memo-hit → hits=1/misses=0, miss → 0/1; every
   query bumps hits), while the kind's Obs pair counts repo-wide,
   schedule-independent totals: [cache.<kind>.queries] is bumped once
   per query (a per-pair event) and [cache.<kind>.builds] once per
   table construction (a per-unique-core event now that builds are
   serialized under the memo lock) — unlike summed per-instance
   hit/miss cells, neither depends on how the pair space was chunked
   across domains. *)
module Tally = struct
  type kind = { kname : string; kqueries : Obs.counter; kbuilds : Obs.counter }

  let kind kname =
    {
      kname;
      kqueries = Obs.counter ("cache." ^ kname ^ ".queries");
      kbuilds = Obs.counter ("cache." ^ kname ^ ".builds");
    }

  type t = { mutable chits : int; mutable cmisses : int; tkind : kind }

  let make k ~was_hit =
    {
      chits = (if was_hit then 1 else 0);
      cmisses = (if was_hit then 0 else 1);
      tkind = k;
    }

  let query t =
    t.chits <- t.chits + 1;
    Obs.bump t.tkind.kqueries

  let built k = Obs.bump k.kbuilds
  let stats t = { hits = t.chits; misses = t.cmisses }
end

(* ------------------------------------------------------------------ *)
(* Memo                                                               *)
(* ------------------------------------------------------------------ *)

(* Core tables are immutable once published, so concurrent verification
   chunks (one prepared instance per chunk) can share one computation.
   A memo is generic in its key: [hash] picks the bucket, [equal]
   re-checks the key in full, so a hash collision can never serve wrong
   tables, and [freeze] copies it on insertion, so later in-place
   patching of the caller's graph cannot corrupt the key. *)
module Memo = struct
  type ('k, 'a) t = {
    lock : Mutex.t;
    tbl : (int, ('k * 'a) list) Hashtbl.t;
    hash : 'k -> int;
    equal : 'k -> 'k -> bool;
    freeze : 'k -> 'k;
  }

  let create ~hash ~equal ~freeze =
    { lock = Mutex.create (); tbl = Hashtbl.create 16; hash; equal; freeze }

  (* [Fun.protect] keeps the lock exception-safe: builders raise
     [Invalid_argument] on oversized cores *)
  let locked memo f =
    Mutex.lock memo.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock memo.lock) f

  let bucket memo h = Option.value ~default:[] (Hashtbl.find_opt memo.tbl h)
  let probe memo h key = List.find_opt (fun (k, _) -> memo.equal k key) (bucket memo h)
  let add memo h entry = Hashtbl.replace memo.tbl h (entry :: bucket memo h)

  (* [(tables, true)] on a memo hit, [(tables, false)] when this call
     computed them.  The build runs under the memo lock, so each unique
     key is built exactly once: racing domains would otherwise duplicate
     the (expensive) build, and the duplicated solver work would make
     the telemetry counters schedule-dependent.  Contention is
     negligible — builds are per-core, queries never take this path. *)
  let find_or_build memo key ~build =
    let h = memo.hash key in
    Obs.with_span sp_lookup (fun () ->
        locked memo (fun () ->
            match probe memo h key with
            | Some (_, tables) -> (tables, true)
            | None ->
                let tables = Obs.with_span sp_build build in
                add memo h (memo.freeze key, tables);
                (tables, false)))

  let clear memo = locked memo (fun () -> Hashtbl.reset memo.tbl)

  (* Dump/merge hooks for [Cache.snapshot]/[Cache.restore].  [entries]
     orders buckets by hash so the dump bytes are a deterministic
     function of the memo contents; [add_if_absent] re-probes under the
     lock so restoring never shadows a table the process already built
     (nor duplicates one restored twice). *)
  let entries memo =
    locked memo (fun () -> Hashtbl.fold (fun h es acc -> (h, es) :: acc) memo.tbl [])
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
    |> List.concat_map snd

  let add_if_absent memo (key, tables) =
    let h = memo.hash key in
    locked memo (fun () ->
        match probe memo h key with
        | Some _ -> false
        | None ->
            add memo h (key, tables);
            true)
end

(* Graph cores key on their structure plus a string of the query
   parameters; digraph cores key on an immutable value (vertex count,
   sorted arcs, parameters), which needs no copy. *)
type graph_key = Graph.t * string

let graph_memo () : (graph_key, 'a) Memo.t =
  Memo.create
    ~hash:(fun (g, _) -> Props.structural_hash g)
    ~equal:(fun (g, aux) (g', aux') -> aux = aux' && Graph.equal_structure g g')
    ~freeze:(fun (g, aux) -> (Graph.copy g, aux))

let value_memo () = Memo.create ~hash:Hashtbl.hash ~equal:( = ) ~freeze:Fun.id

(* ------------------------------------------------------------------ *)
(* Steiner: conditioned connectivity table over the volatile vertices *)
(* ------------------------------------------------------------------ *)

(* Steiner.min_extra_nodes enumerates candidate connector sets in size
   order and only asks "is terminals ∪ extra connected?".  Input edges
   only ever touch the [volatile] vertices, so a candidate set's core
   components matter only through the volatile vertices they hold:

   - a class with no volatile vertex (a dead class) can never be joined
     by an input edge, so a set with a dead class and more than one
     class is connected under no input and is dropped;
   - a set whose core alone connects is connected under every input, so
     only the smallest such size is kept ([salone]);
   - any other set is live: every class holds a volatile vertex, so it
     is connected under [extra] iff the extra edges join the volatile
     vertices' component ids into one class.  It is stored as that
     projection — the canonical component id of each volatile vertex,
     0xff when unselected — plus its class count, and since equal
     projections answer every query alike, each is kept only at its
     smallest size.

   One DFS over the connector sets builds the table: each depth holds its
   own union-find with a live flag per root and running class and
   dead-class counts, so a step is one array copy plus the new vertex's
   unions.  A query replays the extra edges over each entry's ids, in
   size order. *)

type steiner_tables = {
  sn : int;  (* vertices *)
  scap : int;
  svol_index : int array;  (* vertex -> volatile slot, or -1 *)
  snvol : int;
  salone : int;  (* smallest size at which the core alone connects, or scap + 1 *)
  ssizes : int array;  (* per entry, nondecreasing; every size < salone *)
  sclasses : int array;  (* core classes among the selected, per entry *)
  sproj : Bytes.t;  (* nentries × snvol canonical component ids *)
}

type steiner = {
  st : steiner_tables;
  (* stamped scratch union-find over component ids, reused across queries *)
  sparent : int array;
  sstamp : int array;
  mutable sround : int;
  sc : Tally.t;
}

let steiner_memo : (graph_key, steiner_tables) Memo.t = graph_memo ()
let steiner_kind = Tally.kind "steiner"
let c_steiner_scanned = Obs.counter "cache.steiner.subsets_scanned"
let h_steiner_scanned = Obs.histogram "cache.steiner.subsets_scanned_per_query"

let count_subsets ~no ~cap =
  let total = ref 0 and c = ref 1 in
  (try
     for s = 0 to cap do
       total := !total + !c;
       if !total > 4_000_000 then raise Exit;
       c := !c * (no - s) / (s + 1)
     done
   with Exit -> invalid_arg "Cache.steiner_prepare: subset space too large");
  !total

(* [terminals] and [volatile] arrive sorted and deduplicated *)
let build_steiner_tables g ~terminals ~volatile ~cap =
  let n = Graph.n g in
  if terminals = [] then invalid_arg "Cache.steiner_prepare: no terminals";
  List.iter
    (fun t -> if t < 0 || t >= n then invalid_arg "Cache.steiner_prepare: bad terminal")
    terminals;
  let vol = Array.of_list volatile in
  let nvol = Array.length vol in
  if nvol > 255 then invalid_arg "Cache.steiner_prepare: too many volatile vertices";
  let vol_index = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n then invalid_arg "Cache.steiner_prepare: bad volatile vertex";
      vol_index.(v) <- i)
    vol;
  let sel = Array.make n false in
  List.iter (fun t -> sel.(t) <- true) terminals;
  let others = Array.of_list (List.filter (fun v -> not sel.(v)) (List.init n Fun.id)) in
  let no = Array.length others in
  if cap < 0 then invalid_arg "Cache.steiner_prepare: negative cap";
  let cap = min cap no in
  let nsubsets = count_subsets ~no ~cap in
  if nsubsets * max 1 nvol > 64_000_000 then
    invalid_arg "Cache.steiner_prepare: tables too large";
  let nbrs = Array.init n (fun v -> Array.of_list (Graph.neighbors g v)) in
  let parent = Array.init (cap + 1) (fun _ -> Array.init n Fun.id) in
  let live = Array.init (cap + 1) (fun _ -> Array.init n (fun v -> vol_index.(v) >= 0)) in
  let classes = Array.make (cap + 1) 0 and dead = Array.make (cap + 1) 0 in
  let rec find pr x =
    let p = pr.(x) in
    if p = x then x
    else begin
      let r = find pr p in
      pr.(x) <- r;
      r
    end
  in
  (* select [v] at depth [d]: a new class, then its core edges to the
     already-selected vertices *)
  let add d v =
    let pr = parent.(d) and lv = live.(d) in
    sel.(v) <- true;
    classes.(d) <- classes.(d) + 1;
    if not lv.(v) then dead.(d) <- dead.(d) + 1;
    Array.iter
      (fun u ->
        if sel.(u) then begin
          let ru = find pr u and rv = find pr v in
          if ru <> rv then begin
            pr.(ru) <- rv;
            classes.(d) <- classes.(d) - 1;
            if not (lv.(ru) && lv.(rv)) then dead.(d) <- dead.(d) - 1;
            lv.(rv) <- lv.(ru) || lv.(rv)
          end
        end)
      nbrs.(v)
  in
  let alone = ref (cap + 1) in
  let best = Hashtbl.create 1024 in
  let root_id = Array.make n 0 and root_stamp = Array.make n (-1) in
  let stamp = ref 0 in
  let record d =
    if classes.(d) = 1 then alone := min !alone d
    else if dead.(d) = 0 then begin
      let pr = parent.(d) in
      incr stamp;
      let next = ref 0 in
      let key = Bytes.make nvol '\255' in
      Array.iteri
        (fun i v ->
          if sel.(v) then begin
            let r = find pr v in
            if root_stamp.(r) <> !stamp then begin
              root_stamp.(r) <- !stamp;
              root_id.(r) <- !next;
              incr next
            end;
            Bytes.set key i (Char.chr root_id.(r))
          end)
        vol;
      let key = Bytes.unsafe_to_string key in
      match Hashtbl.find_opt best key with
      | Some (s, _) when s <= d -> ()
      | _ -> Hashtbl.replace best key (d, classes.(d))
    end
  in
  List.iter (add 0) terminals;
  record 0;
  let rec go d start =
    if d < cap then
      for i = start to no - 1 do
        Array.blit parent.(d) 0 parent.(d + 1) 0 n;
        Array.blit live.(d) 0 live.(d + 1) 0 n;
        classes.(d + 1) <- classes.(d);
        dead.(d + 1) <- dead.(d);
        add (d + 1) others.(i);
        record (d + 1);
        go (d + 1) (i + 1);
        sel.(others.(i)) <- false
      done
  in
  go 0 0;
  (* sorted by (size, projection): a deterministic function of the
     inputs, so snapshots of equal memos are byte-identical *)
  let entries =
    Hashtbl.fold
      (fun key (s, cls) acc -> if s < !alone then (s, key, cls) :: acc else acc)
      best []
    |> List.sort compare |> Array.of_list
  in
  let proj = Bytes.create (Array.length entries * nvol) in
  Array.iteri (fun i (_, key, _) -> Bytes.blit_string key 0 proj (i * nvol) nvol) entries;
  {
    sn = n;
    scap = cap;
    svol_index = vol_index;
    snvol = nvol;
    salone = !alone;
    ssizes = Array.map (fun (s, _, _) -> s) entries;
    sclasses = Array.map (fun (_, _, cls) -> cls) entries;
    sproj = proj;
  }

let steiner_prepare g ~terminals ~volatile ~cap =
  let terminals = List.sort_uniq compare terminals
  and volatile = List.sort_uniq compare volatile in
  let ints l = String.concat "," (List.map string_of_int l) in
  let aux = ints terminals ^ ";" ^ string_of_int cap ^ ";" ^ ints volatile in
  let tables, was_hit =
    Memo.find_or_build steiner_memo (g, aux) ~build:(fun () ->
        Tally.built steiner_kind;
        build_steiner_tables g ~terminals ~volatile ~cap)
  in
  {
    st = tables;
    sparent = Array.make 256 0;
    sstamp = Array.make 256 (-1);
    sround = 0;
    sc = Tally.make steiner_kind ~was_hit;
  }

let steiner_min_extra c ~extra =
  Tally.query c.sc;
  let t = c.st in
  let n = t.sn and nvol = t.snvol in
  (* each extra edge as its two volatile slots *)
  let slots =
    Array.of_list
      (List.map
         (fun (u, v) ->
           if u < 0 || u >= n || v < 0 || v >= n then
             invalid_arg "Cache.steiner_min_extra: edge out of range";
           let iu = t.svol_index.(u) and iv = t.svol_index.(v) in
           if iu < 0 || iv < 0 then
             invalid_arg "Cache.steiner_min_extra: extra edge endpoint not volatile";
           (iu, iv))
         extra)
  in
  let parent = c.sparent and stamp = c.sstamp in
  let rec find x =
    if parent.(x) = x then x
    else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  let touch x =
    if stamp.(x) <> c.sround then begin
      stamp.(x) <- c.sround;
      parent.(x) <- x
    end
  in
  let exception Hit of int in
  let nentries = Array.length t.ssizes in
  let scanned = ref 0 in
  let result =
    try
      for i = 0 to nentries - 1 do
        incr scanned;
        let classes = ref t.sclasses.(i) in
        c.sround <- c.sround + 1;
        let base = i * nvol in
        Array.iter
          (fun (iu, iv) ->
            let cu = Char.code (Bytes.get t.sproj (base + iu))
            and cv = Char.code (Bytes.get t.sproj (base + iv)) in
            if cu <> 0xff && cv <> 0xff then begin
              touch cu;
              touch cv;
              let ru = find cu and rv = find cv in
              if ru <> rv then begin
                parent.(ru) <- rv;
                decr classes
              end
            end)
          slots;
        if !classes = 1 then raise (Hit t.ssizes.(i))
      done;
      if t.salone <= t.scap then Some t.salone else None
    with Hit s -> Some s
  in
  Obs.incr c_steiner_scanned !scanned;
  Obs.observe h_steiner_scanned !scanned;
  result

let steiner_stats c = Tally.stats c.sc

(* ------------------------------------------------------------------ *)
(* Max cut: conditioned table over the volatile vertices              *)
(* ------------------------------------------------------------------ *)

type maxcut_tables = {
  mn : int;
  mvol_index : int array;  (* vertex -> index into volatile, or -1 *)
  mnvol : int;
  mtable : int array;  (* Maxcut.conditioned_max of the core *)
}

type maxcut = { mt : maxcut_tables; mc : Tally.t }

let maxcut_memo : (graph_key, maxcut_tables) Memo.t = graph_memo ()
let maxcut_kind = Tally.kind "maxcut"

let build_maxcut_tables g ~volatile =
  let n = Graph.n g in
  let vol_index = Array.make n (-1) in
  List.iteri
    (fun i v ->
      if v < 0 || v >= n then invalid_arg "Cache.maxcut_prepare: bad vertex";
      vol_index.(v) <- i)
    volatile;
  {
    mn = n;
    mvol_index = vol_index;
    mnvol = List.length volatile;
    mtable = Maxcut.conditioned_max g ~volatile;
  }

let maxcut_prepare g ~volatile =
  let aux = String.concat "," (List.map string_of_int volatile) in
  let tables, was_hit =
    Memo.find_or_build maxcut_memo (g, aux) ~build:(fun () ->
        Tally.built maxcut_kind;
        build_maxcut_tables g ~volatile)
  in
  { mt = tables; mc = Tally.make maxcut_kind ~was_hit }

let maxcut_max ?stop_at c ~extra =
  Tally.query c.mc;
  let t = c.mt in
  let s = t.mnvol in
  let adj =
    Maxcut.adjacency s
      (List.map
         (fun (u, v, w) ->
           if u < 0 || u >= t.mn || v < 0 || v >= t.mn then
             invalid_arg "Cache.maxcut_max: edge out of range";
           let iu = t.mvol_index.(u) and iv = t.mvol_index.(v) in
           if iu < 0 || iv < 0 then
             invalid_arg "Cache.maxcut_max: extra edge endpoint not volatile";
           (iu, iv, w))
         extra)
  in
  (* Gray walk over the 2^s volatile assignments: the extra-edge cut
     weight is maintained incrementally, the core contributes m.(va).
     With [stop_at] the walk ends as soon as the bound is witnessed:
     the result is then exact below the bound, and any value ≥ the
     bound certifies the true maximum is too. *)
  let stop = match stop_at with Some b -> b | None -> max_int in
  let side = Array.make s false in
  let best = ref t.mtable.(0) and weight = ref 0 and va = ref 0 and tt = ref 1 in
  while !best < stop && !tt < 1 lsl s do
    let i = Bitset.ctz !tt in
    weight := !weight + Maxcut.flip_delta adj side i;
    side.(i) <- not side.(i);
    va := !va lxor (1 lsl i);
    if !weight + t.mtable.(!va) > !best then best := !weight + t.mtable.(!va);
    incr tt
  done;
  !best

let maxcut_stats c = Tally.stats c.mc

(* ------------------------------------------------------------------ *)
(* Hamiltonian paths: minimal arc patterns over the candidate arcs    *)
(* ------------------------------------------------------------------ *)

(* Inputs add arcs from a fixed candidate list to a fixed core digraph.
   A Hamiltonian path leaves and enters each vertex at most once, so the
   added arcs it uses form a pattern: candidates with pairwise distinct
   tails and pairwise distinct heads, and the same path is one of core +
   that pattern.  Adding arcs never removes a path.  So core + E has a
   Hamiltonian path iff some minimal true pattern is a subset of E: the
   table holds those as masks over the candidates, each with the path
   its search found, and a query is a subset scan.

   The build searches the patterns by decreasing size, ties by mask, and
   skips any pattern inside one already refuted, since deleting arcs
   never creates a path.  For the Theorem 2.2 digraph at k = 2 that is
   20 searches over 49 patterns, and the 4 minimal patterns left are
   Claim 2.1's {(a1^i, a2^j), (b1^i, b2^j)}.  The cap keeps the build
   bounded: k = 4 has 43 681 patterns, and one refutation there takes
   minutes. *)

type hampath_tables = {
  hn : int;
  hcands : int array;  (* the candidate arc u·n + v of each mask bit *)
  hmasks : int array;  (* minimal true patterns, by (size, mask) *)
  hpaths : int list array;  (* a Hamiltonian path of core + each pattern *)
}

type hampath = { ht : hampath_tables; hc : Tally.t }
type hampath_key = int * (int * int * int) list * int array

let hampath_memo : (hampath_key, hampath_tables) Memo.t = value_memo ()
let hampath_kind = Tally.kind "hampath"
let max_patterns = 4096

let build_hampath_tables dg cands =
  let n = Digraph.n dg and m = Array.length cands in
  if m > Sys.int_size - 1 then
    invalid_arg "Cache.hampath_prepare: candidate arcs do not fit one int mask";
  let tail i = cands.(i) / n and head i = cands.(i) mod n in
  (* the candidates sharing a tail or a head with each candidate *)
  let conflict =
    Array.init m (fun i ->
        let c = ref 0 in
        for j = 0 to m - 1 do
          if j <> i && (tail j = tail i || head j = head i) then c := !c lor (1 lsl j)
        done;
        !c)
  in
  let patterns = ref [] and count = ref 0 in
  let rec go i mask =
    if i = m then begin
      incr count;
      if !count > max_patterns then
        invalid_arg
          (Printf.sprintf "Cache.hampath_prepare: more than %d arc patterns" max_patterns);
      patterns := mask :: !patterns
    end
    else begin
      go (i + 1) mask;
      if mask land conflict.(i) = 0 then go (i + 1) (mask lor (1 lsl i))
    end
  in
  go 0 0;
  let succ0 = Digraph.succ_bitsets dg and pred0 = Digraph.pred_bitsets dg in
  (* a pattern touches each succ and pred row at most once *)
  let with_bit b x =
    let b = Bitset.copy b in
    Bitset.add b x;
    b
  in
  let refuted = ref [] and found = ref [] in
  List.sort (fun a b -> compare (Bitset.popcount b, a) (Bitset.popcount a, b)) !patterns
  |> List.iter (fun p ->
         if not (List.exists (fun r -> p land r = p) !refuted) then begin
           let succ = Array.copy succ0 and pred = Array.copy pred0 in
           for i = 0 to m - 1 do
             if p land (1 lsl i) <> 0 then begin
               succ.(tail i) <- with_bit succ0.(tail i) (head i);
               pred.(head i) <- with_bit pred0.(head i) (tail i)
             end
           done;
           match Hamilton.directed_path_over ~succ ~pred with
           | None -> refuted := p :: !refuted
           | Some path -> found := (p, path) :: !found
         end);
  let minimal =
    List.filter
      (fun (p, _) -> not (List.exists (fun (q, _) -> q <> p && q land p = q) !found))
      !found
    |> List.sort (fun (a, _) (b, _) -> compare (Bitset.popcount a, a) (Bitset.popcount b, b))
  in
  {
    hn = n;
    hcands = cands;
    hmasks = Array.of_list (List.map fst minimal);
    hpaths = Array.of_list (List.map snd minimal);
  }

let hampath_prepare dg ~candidates =
  let n = Digraph.n dg in
  let cands =
    List.map
      (fun (u, v) ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg "Cache.hampath_prepare: candidate arc out of range";
        (u * n) + v)
      candidates
    |> List.sort_uniq compare |> Array.of_list
  in
  let tables, was_hit =
    Memo.find_or_build hampath_memo (n, Digraph.arcs dg, cands) ~build:(fun () ->
        Tally.built hampath_kind;
        build_hampath_tables dg cands)
  in
  { ht = tables; hc = Tally.make hampath_kind ~was_hit }

let hampath_directed_path c ~extra =
  Tally.query c.hc;
  let t = c.ht in
  let n = t.hn in
  let bit (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Cache.hampath_directed_path: arc out of range";
    match Array.find_index (Int.equal ((u * n) + v)) t.hcands with
    | Some i -> 1 lsl i
    | None -> invalid_arg "Cache.hampath_directed_path: extra arc not a candidate"
  in
  let mask = List.fold_left (fun acc a -> acc lor bit a) 0 extra in
  let rec scan i =
    if i = Array.length t.hmasks then None
    else if t.hmasks.(i) land mask = t.hmasks.(i) then Some t.hpaths.(i)
    else scan (i + 1)
  in
  scan 0

let hampath_stats c = Tally.stats c.hc

(* ------------------------------------------------------------------ *)
(* Max independent set: conditioned table over the volatile vertices  *)
(* ------------------------------------------------------------------ *)

(* α(core + extra), where the extra edges live inside [volatile]:
   any independent set splits as A ⊎ S with A = S∩volatile, so

     α(G) = max over A ⊆ volatile independent in G of
            |A| + α(G[V ∖ volatile ∖ N(A)])

   and because extra edges never touch V ∖ volatile, both the residual
   graph and N(A)∖volatile are those of the bare core — so each subset's
   value depends on the core alone.  The build no longer evaluates every
   subset eagerly (one exact MIS solve per subset, the dominant cost at
   larger scales): it only enumerates the masks and stores the
   admissible upper bound ub(A) = base(A) + value(∅), where value(∅) is
   the residual optimum with nothing removed — sound because the
   residual graph of any A is an induced subgraph of the ∅ residual and
   α/MWIS is monotone under induced subgraphs with non-negative
   weights.  Entries are sorted by decreasing ub; a query scans in that
   order, lazily evaluating compatible entries into a shared memo, and
   stops as soon as the next ub cannot beat the best exact value seen —
   so only the subsets some query actually needs are ever solved.  The
   evaluated set is query-determined, not schedule-determined: racing
   domains serialize on the per-table lock and the second one finds the
   memo filled, keeping the solver counters deterministic. *)

type mis_tables = {
  mi_n : int;
  mi_vol_index : int array;  (* vertex -> index into volatile, or -1 *)
  mi_masks : int array;  (* sorted by (ub desc, mask asc) *)
  mi_ubs : int array;
  mi_vals : int array;  (* lazy memo; -1 = not evaluated yet *)
  mi_lock : Mutex.t;
  mi_eval : int -> int;  (* mask -> exact value, on the frozen core *)
}

type mis = { mi : mis_tables; mic : Tally.t }

let mis_memo : (graph_key, mis_tables) Memo.t = graph_memo ()
let mis_kind = Tally.kind "mis"
let mwis_kind = Tally.kind "mwis"
let c_mis_evals = Obs.counter "cache.mis.entries_evaluated"

(* The exact per-mask evaluator over a frozen core, shared by the eager
   build and the snapshot restore path (which re-derives the closure
   from an entry's frozen graph + aux, see [rebuild_mis_entry]).
   Returns the volatile index map plus the two halves of the value:
   [base_of] (the subset's own size/weight) and [residual_of] (the
   optimum outside volatile ∖ N(A)). *)
let mis_evaluator ~weighted g ~volatile =
  let n = Graph.n g in
  let vol = Array.of_list volatile in
  let s = Array.length vol in
  if s > 62 then invalid_arg "Cache.mis_prepare: too many volatile vertices";
  let vol_index = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n then invalid_arg "Cache.mis_prepare: bad vertex";
      vol_index.(v) <- i)
    vol;
  let adj = Graph.adjacency g in
  let nonvol = List.filter (fun v -> vol_index.(v) < 0) (List.init n Fun.id) in
  let vw = Graph.vweights g in
  let base_of mask =
    if weighted then begin
      let wa = ref 0 in
      for i = 0 to s - 1 do
        if mask land (1 lsl i) <> 0 then wa := !wa + vw.(vol.(i))
      done;
      !wa
    end
    else Bitset.popcount mask
  in
  let residual_of mask =
    let nbrs = Bitset.create n in
    for i = 0 to s - 1 do
      if mask land (1 lsl i) <> 0 then Bitset.union_into nbrs adj.(vol.(i))
    done;
    let rest = List.filter (fun v -> not (Bitset.mem nbrs v)) nonvol in
    (* Graph.induced carries the vertex weights over, so the residual
       MWIS sees the core's weights unchanged *)
    let sub, _ = Graph.induced g rest in
    if weighted then fst (Mis.max_weight_set sub) else Mis.alpha sub
  in
  (vol_index, base_of, residual_of)

let build_mis_tables ?(weighted = false) g ~volatile =
  (* Freeze the core: families patch the caller's graph in place between
     pairs, and the lazy evaluator below must keep seeing the build-time
     topology and weights. *)
  let g = Graph.copy g in
  let n = Graph.n g in
  let vol = Array.of_list volatile in
  let s = Array.length vol in
  let vol_index, base_of, residual_of = mis_evaluator ~weighted g ~volatile in
  let adj = Graph.adjacency g in
  (* core adjacency restricted to the volatile set, as index masks *)
  let vadj = Array.make (max s 1) 0 in
  for i = 0 to s - 1 do
    for j = 0 to s - 1 do
      if i <> j && Bitset.mem adj.(vol.(i)) vol.(j) then
        vadj.(i) <- vadj.(i) lor (1 lsl j)
    done
  done;
  (* One exact solve at build time: the ∅ residual, which both seeds the
     memo and caps every other entry from above. *)
  let rest0 = residual_of 0 in
  let masks = ref [] and count = ref 0 in
  (* all subsets of volatile independent in the core; masks only ever
     contain indices < i *)
  let rec go i mask =
    if i = s then begin
      incr count;
      if !count > 65_536 then
        invalid_arg "Cache.mis_prepare: too many independent volatile subsets";
      masks := mask :: !masks
    end
    else begin
      go (i + 1) mask;
      if mask land vadj.(i) = 0 then go (i + 1) (mask lor (1 lsl i))
    end
  in
  go 0 0;
  let keyed = Array.of_list (List.map (fun m -> (base_of m + rest0, m)) !masks) in
  Array.sort
    (fun (ua, ma) (ub, mb) -> if ua <> ub then compare ub ua else compare ma mb)
    keyed;
  let count = Array.length keyed in
  let mi_masks = Array.make count 0 in
  let mi_ubs = Array.make count 0 in
  let mi_vals = Array.make count (-1) in
  Array.iteri
    (fun i (u, mk) ->
      mi_masks.(i) <- mk;
      mi_ubs.(i) <- u;
      if mk = 0 then mi_vals.(i) <- rest0)
    keyed;
  {
    mi_n = n;
    mi_vol_index = vol_index;
    mi_masks;
    mi_ubs;
    mi_vals;
    mi_lock = Mutex.create ();
    mi_eval = (fun mask -> base_of mask + residual_of mask);
  }

let mis_prepare g ~volatile =
  let aux = String.concat "," (List.map string_of_int volatile) in
  let tables, was_hit =
    Memo.find_or_build mis_memo (g, aux) ~build:(fun () ->
        Tally.built mis_kind;
        build_mis_tables g ~volatile)
  in
  { mi = tables; mic = Tally.make mis_kind ~was_hit }

(* Lazy evaluation with double-checked locking: the unlocked probe races
   only against a single int store (no tearing on immediates), and a
   stale [-1] just falls through to the locked re-check, so each entry
   is solved exactly once process-wide. *)
let mis_entry_value t i =
  let v = t.mi_vals.(i) in
  if v >= 0 then v
  else begin
    Mutex.lock t.mi_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mi_lock)
      (fun () ->
        let v = t.mi_vals.(i) in
        if v >= 0 then v
        else begin
          let v = t.mi_eval t.mi_masks.(i) in
          t.mi_vals.(i) <- v;
          Obs.bump c_mis_evals;
          v
        end)
  end

let mis_alpha c ~extra =
  Tally.query c.mic;
  let t = c.mi in
  let forbidden =
    List.map
      (fun (u, v) ->
        if u < 0 || u >= t.mi_n || v < 0 || v >= t.mi_n then
          invalid_arg "Cache.mis_alpha: edge out of range";
        let iu = t.mi_vol_index.(u) and iv = t.mi_vol_index.(v) in
        if iu < 0 || iv < 0 then
          invalid_arg "Cache.mis_alpha: extra edge endpoint not volatile";
        (1 lsl iu) lor (1 lsl iv))
      extra
  in
  let ok mask = List.for_all (fun p -> mask land p <> p) forbidden in
  (* Scan in decreasing-ub order; stop once no later entry's bound can
     beat the best exact value.  The empty subset is always compatible,
     so [best] is eventually set and the scan terminates. *)
  let nentries = Array.length t.mi_masks in
  let best = ref min_int in
  let i = ref 0 in
  while !i < nentries && t.mi_ubs.(!i) > !best do
    if ok t.mi_masks.(!i) then begin
      let v = mis_entry_value t !i in
      if v > !best then best := v
    end;
    incr i
  done;
  !best

let mis_stats c = Tally.stats c.mic

(* ------------------------------------------------------------------ *)
(* Max weight independent set: same conditioning, weighted values      *)
(* ------------------------------------------------------------------ *)

(* Identical decomposition to [mis_prepare] — any independent set splits
   as A ⊎ S over the volatile cut — but tabulating
   w(A) + MWIS(core ∖ volatile ∖ N(A)) with the core's vertex weights.
   Valid for families whose inputs only add volatile-volatile edges and
   never touch weights (the Theorem 4.3 gadget). *)

type mwis = mis

let mwis_prepare g ~volatile =
  let aux = "w;" ^ String.concat "," (List.map string_of_int volatile) in
  let tables, was_hit =
    Memo.find_or_build mis_memo (g, aux) ~build:(fun () ->
        Tally.built mwis_kind;
        build_mis_tables ~weighted:true g ~volatile)
  in
  { mi = tables; mic = Tally.make mwis_kind ~was_hit }

let mwis_weight = mis_alpha

let mwis_stats = mis_stats

(* ------------------------------------------------------------------ *)
(* Node-weighted Steiner: feasibility of every connector set           *)
(* ------------------------------------------------------------------ *)

(* Steiner.node_weighted equals min over U ⊇ terminals with G[U]
   connected of w(U): a minimum tree's vertex set induces a connected
   subgraph, and a spanning tree of any connected G[U] contains the
   terminals at weight w(U).  Connectivity of G[U] depends on the core
   topology alone, so it is tabulated here over every subset of
   non-terminals; a query only folds the current vertex weights over the
   feasible masks — which is how the Section 4.4 family (fixed topology,
   input-dependent weights) answers each pair without a Dreyfus–Wagner
   run. *)

type nwsteiner_tables = {
  nw_n : int;
  nw_terms : int list;  (* sorted terminals *)
  nw_nonterm : int array;  (* non-terminal vertex per mask bit *)
  nw_feasible : Bytes.t;  (* 2^|nonterm| flags: G[terms ∪ S] connected *)
}

type nwsteiner = { nwt : nwsteiner_tables; nwc : Tally.t }

let nwsteiner_memo : (graph_key, nwsteiner_tables) Memo.t = graph_memo ()
let nwsteiner_kind = Tally.kind "nwsteiner"

let build_nwsteiner_tables g ~terminals =
  let n = Graph.n g in
  let terminals = List.sort_uniq compare terminals in
  if terminals = [] then invalid_arg "Cache.nwsteiner_prepare: no terminals";
  List.iter
    (fun t ->
      if t < 0 || t >= n then invalid_arg "Cache.nwsteiner_prepare: bad terminal")
    terminals;
  let is_terminal = Array.make n false in
  List.iter (fun t -> is_terminal.(t) <- true) terminals;
  let nonterm =
    Array.of_list (List.filter (fun v -> not is_terminal.(v)) (List.init n Fun.id))
  in
  let m = Array.length nonterm in
  if m > 18 then invalid_arg "Cache.nwsteiner_prepare: too many non-terminals";
  let edges = Array.of_list (List.map (fun (u, v, _) -> (u, v)) (Graph.edges g)) in
  let feasible = Bytes.make (1 lsl m) '\000' in
  let sel = Array.make n false in
  List.iter (fun t -> sel.(t) <- true) terminals;
  let nterms = List.length terminals in
  for mask = 0 to (1 lsl m) - 1 do
    let selected = ref nterms in
    for i = 0 to m - 1 do
      let on = mask land (1 lsl i) <> 0 in
      sel.(nonterm.(i)) <- on;
      if on then incr selected
    done;
    let uf = Union_find.create n in
    let classes = ref !selected in
    Array.iter
      (fun (u, v) -> if sel.(u) && sel.(v) && Union_find.union uf u v then decr classes)
      edges;
    if !classes = 1 then Bytes.set feasible mask '\001'
  done;
  { nw_n = n; nw_terms = terminals; nw_nonterm = nonterm; nw_feasible = feasible }

let nwsteiner_prepare g ~terminals =
  let aux =
    String.concat "," (List.map string_of_int (List.sort_uniq compare terminals))
  in
  let tables, was_hit =
    Memo.find_or_build nwsteiner_memo (g, aux) ~build:(fun () ->
        Tally.built nwsteiner_kind;
        build_nwsteiner_tables g ~terminals)
  in
  { nwt = tables; nwc = Tally.make nwsteiner_kind ~was_hit }

let nwsteiner_cost c ~weights =
  Tally.query c.nwc;
  let t = c.nwt in
  if Array.length weights <> t.nw_n then
    invalid_arg "Cache.nwsteiner_cost: weights length mismatch";
  Array.iter
    (fun w -> if w < 0 then invalid_arg "Steiner.node_weighted: negative weight")
    weights;
  let base = List.fold_left (fun acc v -> acc + weights.(v)) 0 t.nw_terms in
  let m = Array.length t.nw_nonterm in
  let wsum = Array.make (1 lsl m) 0 in
  let best = ref max_int in
  if Bytes.get t.nw_feasible 0 = '\001' then best := base;
  for mask = 1 to (1 lsl m) - 1 do
    let low = mask land -mask in
    wsum.(mask) <- wsum.(mask lxor low) + weights.(t.nw_nonterm.(Bitset.ctz mask));
    if Bytes.get t.nw_feasible mask = '\001' && base + wsum.(mask) < !best then
      best := base + wsum.(mask)
  done;
  if !best = max_int then
    invalid_arg "Steiner.node_weighted: terminals disconnected"
  else !best

let nwsteiner_stats c = Tally.stats c.nwc

(* ------------------------------------------------------------------ *)
(* Directed Steiner: shared reversed-adjacency snapshot                *)
(* ------------------------------------------------------------------ *)

(* The Theorem 4.7 arborescence solve is per-pair work (input arcs carry
   the pair), but the core's reversed-adjacency view is not: a query
   copies the row array and conses its extra arcs on the touched rows —
   the shared core rows are untouched tails — then runs
   Steiner.directed_over.  Memoized on the sorted arc list plus the
   query frame. *)

type dsteiner_tables = {
  dsn : int;
  dsrev : (int * int) list array;
  dsroot : int;
  dsterms : int list;
}

type dsteiner = { dst : dsteiner_tables; dsc : Tally.t }
type dsteiner_key = int * (int * int * int) list * int * int list

let dsteiner_memo : (dsteiner_key, dsteiner_tables) Memo.t = value_memo ()
let dsteiner_kind = Tally.kind "dsteiner"

let dsteiner_prepare dg ~root ~terminals =
  let terminals = List.sort_uniq compare terminals in
  let n = Digraph.n dg in
  let tables, was_hit =
    Memo.find_or_build dsteiner_memo (n, Digraph.arcs dg, root, terminals)
      ~build:(fun () ->
        Tally.built dsteiner_kind;
        let rev = Array.make n [] in
        Digraph.iter_arcs (fun u v w -> rev.(v) <- (u, w) :: rev.(v)) dg;
        { dsn = n; dsrev = rev; dsroot = root; dsterms = terminals })
  in
  { dst = tables; dsc = Tally.make dsteiner_kind ~was_hit }

let dsteiner_cost ?cutoff c ~extra =
  Tally.query c.dsc;
  let t = c.dst in
  let rev = Array.copy t.dsrev in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= t.dsn || v < 0 || v >= t.dsn then
        invalid_arg "Cache.dsteiner_cost: arc out of range";
      rev.(v) <- (u, w) :: rev.(v))
    extra;
  Steiner.directed_over ?cutoff ~reversed:rev ~root:t.dsroot t.dsterms

let dsteiner_stats c = Tally.stats c.dsc

(* ------------------------------------------------------------------ *)
(* Dominating set: shared closed balls with copy-on-write patching    *)
(* ------------------------------------------------------------------ *)

type domset_tables = { dn : int; dradius : int; dballs : Bitset.t array }

type domset = { dt : domset_tables; dc : Tally.t }

let domset_memo : (graph_key, domset_tables) Memo.t = graph_memo ()
let domset_kind = Tally.kind "domset"

let domset_prepare g ~radius =
  if radius < 1 then invalid_arg "Cache.domset_prepare: radius must be >= 1";
  let aux = string_of_int radius in
  let tables, was_hit =
    Memo.find_or_build domset_memo (g, aux) ~build:(fun () ->
        Tally.built domset_kind;
        {
          dn = Graph.n g;
          dradius = radius;
          dballs = Array.init (Graph.n g) (fun v -> Props.reachable_within g v ~radius);
        })
  in
  { dt = tables; dc = Tally.make domset_kind ~was_hit }

(* Adding edge {u,v} only changes the closed radius-1 balls of u and v,
   so the patched array shares every untouched ball with the core
   tables (which solvers only read — see Domset.min_weight_set).  At
   radius > 1 an extra edge can grow balls far from its endpoints, so
   the copy-on-write patch is only sound with [extra = []] — the
   weights-only families (Theorems 4.2/4.4) query exactly that way. *)
let domset_balls c ~extra =
  Tally.query c.dc;
  let t = c.dt in
  if extra <> [] && t.dradius <> 1 then
    invalid_arg "Cache.domset_balls: extra edges require radius 1";
  let balls = Array.copy t.dballs in
  let owned = Array.make t.dn false in
  let touch v =
    if v < 0 || v >= t.dn then invalid_arg "Cache.domset_balls: edge out of range";
    if not owned.(v) then begin
      owned.(v) <- true;
      balls.(v) <- Bitset.copy balls.(v)
    end
  in
  List.iter
    (fun (u, v) ->
      touch u;
      touch v;
      Bitset.add balls.(u) v;
      Bitset.add balls.(v) u)
    extra;
  balls

let domset_stats c = Tally.stats c.dc

(* ------------------------------------------------------------------ *)
(* Snapshot / restore: persistable view of the marshal-safe memos     *)
(* ------------------------------------------------------------------ *)

(* Every memo crosses the Marshal boundary as its hash-sorted entries,
   so identical memo contents marshal to identical bytes — which lets
   the store checksum snapshots like any other block.  The MIS/MWIS
   tables hold a mutex and an evaluation closure, which cannot be
   marshalled: they are projected to their arrays (masks, upper bounds,
   the lazily-solved values), and [restore] re-derives a fresh lock and
   evaluator from the entry's frozen graph and aux string — so solved
   entries survive the round trip and unsolved ones stay lazy. *)
type mis_dump = {
  dmi_masks : int array;
  dmi_ubs : int array;
  dmi_vals : int array;  (** -1 where still unsolved at snapshot time *)
}

type dump = {
  dump_steiner : (graph_key * steiner_tables) list;
  dump_maxcut : (graph_key * maxcut_tables) list;
  dump_mis : (graph_key * mis_dump) list;
  dump_nwsteiner : (graph_key * nwsteiner_tables) list;
  dump_domset : (graph_key * domset_tables) list;
  dump_hampath : (hampath_key * hampath_tables) list;
  dump_dsteiner : (dsteiner_key * dsteiner_tables) list;
}

(* Bumped whenever a dumped table changes shape ("chcache2": the MIS/MWIS
   projection joined the dump; "chcache3": the Steiner table became the
   volatile projection; "chcache4": one generic memo, and the hampath
   table became minimal arc patterns): an old snapshot fails the tag
   check cleanly (reported corrupt by the sweep store, recomputed)
   instead of being misparsed into the new type. *)
let snapshot_tag = "chcache4"

(* The volatile list and weighted flag round-trip through the aux string
   the prepare functions key the memo with: ["w;"] marks MWIS, the rest
   is the comma-joined volatile vertex list. *)
let parse_mis_aux aux =
  let weighted =
    String.length aux >= 2 && aux.[0] = 'w' && aux.[1] = ';'
  in
  let rest =
    if weighted then String.sub aux 2 (String.length aux - 2) else aux
  in
  let volatile =
    if rest = "" then []
    else List.map int_of_string (String.split_on_char ',' rest)
  in
  (weighted, volatile)

let dump_mis_entry (key, t) =
  ( key,
    {
      dmi_masks = t.mi_masks;
      dmi_ubs = t.mi_ubs;
      (* copied under no lock: a racing lazy solve can only flip a cell
         from -1 to its final value, and a stale -1 just re-solves after
         restore *)
      dmi_vals = Array.copy t.mi_vals;
    } )

let rebuild_mis_entry (((g, aux) as key), d) =
  let weighted, volatile = parse_mis_aux aux in
  let vol_index, base_of, residual_of = mis_evaluator ~weighted g ~volatile in
  ( key,
    {
      mi_n = Graph.n g;
      mi_vol_index = vol_index;
      mi_masks = d.dmi_masks;
      mi_ubs = d.dmi_ubs;
      mi_vals = d.dmi_vals;
      mi_lock = Mutex.create ();
      mi_eval = (fun mask -> base_of mask + residual_of mask);
    } )

let snapshot () =
  let dump =
    {
      dump_steiner = Memo.entries steiner_memo;
      dump_maxcut = Memo.entries maxcut_memo;
      dump_mis = List.map dump_mis_entry (Memo.entries mis_memo);
      dump_nwsteiner = Memo.entries nwsteiner_memo;
      dump_domset = Memo.entries domset_memo;
      dump_hampath = Memo.entries hampath_memo;
      dump_dsteiner = Memo.entries dsteiner_memo;
    }
  in
  snapshot_tag ^ Marshal.to_string dump []

let restore_memo memo entries =
  List.fold_left (fun acc e -> if Memo.add_if_absent memo e then acc + 1 else acc) 0 entries

let restore s =
  let tl = String.length snapshot_tag in
  if String.length s < tl || String.sub s 0 tl <> snapshot_tag then
    failwith "Cache.restore: not a cache snapshot";
  let dump =
    try (Marshal.from_string s tl : dump)
    with _ -> failwith "Cache.restore: unparseable snapshot"
  in
  let mis_rebuilt =
    (* the evaluator rebuild parses the aux string and indexes the frozen
       graph, so a snapshot with mangled entries fails here rather than
       poisoning the memo *)
    try List.map rebuild_mis_entry dump.dump_mis
    with _ -> failwith "Cache.restore: unparseable snapshot"
  in
  restore_memo steiner_memo dump.dump_steiner
  + restore_memo maxcut_memo dump.dump_maxcut
  + restore_memo mis_memo mis_rebuilt
  + restore_memo nwsteiner_memo dump.dump_nwsteiner
  + restore_memo domset_memo dump.dump_domset
  + restore_memo hampath_memo dump.dump_hampath
  + restore_memo dsteiner_memo dump.dump_dsteiner

let clear () =
  Memo.clear steiner_memo;
  Memo.clear maxcut_memo;
  Memo.clear mis_memo;
  Memo.clear nwsteiner_memo;
  Memo.clear domset_memo;
  Memo.clear hampath_memo;
  Memo.clear dsteiner_memo
