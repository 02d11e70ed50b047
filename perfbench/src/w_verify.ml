(* verify-inc: the in-process incremental engine.  Every plan starts
   from cold caches (Cache.clear, then prepare) and answers its pairs
   with [pverdict].  Search-bound plans (exact branch and bound, 0.1-6 ms
   per verdict) own ops_per_s and the p99; table-bound plans (a scan of
   tables built at prepare time, 1-40 us per verdict) are about three
   quarters of the ops and own the p50. *)

open Ch_cc
open Ch_core
module Obs = Ch_obs.Obs
module Cache = Ch_solvers.Cache

type pairs = All | Sampled of int
type plan = { id : string; k : int; pairs : pairs; search : bool }

let plans =
  [
    { id = "steiner"; k = 2; pairs = All; search = true };
    { id = "hampath"; k = 2; pairs = All; search = true };
    { id = "mds"; k = 4; pairs = Sampled 256; search = true };
    { id = "steiner-directed"; k = 2; pairs = Sampled 32; search = true };
    { id = "2mds"; k = 2; pairs = Sampled 512; search = false };
    { id = "3mds"; k = 2; pairs = Sampled 512; search = false };
    { id = "mds-restricted"; k = 2; pairs = Sampled 512; search = false };
    { id = "steiner-node-weighted"; k = 2; pairs = All; search = false };
    { id = "maxcut"; k = 2; pairs = All; search = false };
    { id = "maxis"; k = 2; pairs = All; search = false };
    { id = "bitgadget"; k = 2; pairs = All; search = false };
    { id = "mds"; k = 2; pairs = All; search = false };
  ]

let cls_table = 0
let cls_search = 1
let sp_prepare = Obs.span "bench.prepare"
let sp_pbuild = Obs.span "bench.pbuild"
let sp_lookup = Obs.span "bench.pverdict.table"
let sp_search = Obs.span "bench.pverdict.search"

let incremental id k =
  match (Registry.find_exn (Ch_lbgraphs.Families.catalog ()) id).Registry.incremental with
  | Some inc -> inc k
  | None -> invalid_arg ("verify-inc: no incremental engine for " ^ id)

let pair_list (fam : Framework.t) ~seed = function
  | All ->
      let xs = Bits.all fam.Framework.input_bits in
      Array.of_list (List.concat_map (fun x -> List.map (fun y -> (x, y)) xs) xs)
  | Sampled n -> Array.init n (fun i -> Framework.random_pair_at fam ~seed i)

let setup (ctx : Workload.ctx) =
  let host = ctx.Workload.host and traced = ctx.Workload.traced in
  let prepare_t = Layer.acc () and apply_t = Layer.acc () in
  let lookup_t = Layer.acc () and search_t = Layer.acc () in
  let counts = ref [] in
  let injected = ref (not ctx.Workload.inject) in
  let plan_steps j p =
    let inc = incremental p.id p.k in
    let fam = inc.Framework.scratch in
    let pairs = pair_list fam ~seed:((ctx.Workload.seed * 1000) + j) p.pairs in
    let expected = Array.map (fun (x, y) -> fam.Framework.f x y) pairs in
    let prep = ref None in
    let prepare () =
      Cache.clear ();
      prep := Some (inc.Framework.prepare ());
      true
    in
    let get () = Option.get !prep in
    let cls = if p.search then cls_search else cls_table in
    let verdict_t, sp = if p.search then (search_t, sp_search) else (lookup_t, sp_lookup) in
    let op i () =
      let x, y = pairs.(i) in
      let v =
        if traced then Layer.timed host sp verdict_t (fun () -> (get ()).Framework.pverdict x y)
        else (get ()).Framework.pverdict x y
      in
      let v = if !injected then v else (injected := true; not v) in
      Check.verdict ~expected:expected.(i) v
    in
    let apply i () =
      let x, y = pairs.(i) in
      ignore (Layer.timed host sp_pbuild apply_t (fun () -> (get ()).Framework.pbuild x y));
      true
    in
    let prepare_step =
      if traced then Loop.Busy (fun () -> Layer.timed host sp_prepare prepare_t prepare)
      else Loop.Busy prepare
    in
    prepare_step
    :: List.concat
         (List.init (Array.length pairs) (fun i ->
              if traced then [ Loop.Aside (apply i); Loop.Op (cls, op i) ]
              else [ Loop.Op (cls, op i) ]))
  in
  let order = Workload.shuffle ctx.Workload.seed (Array.of_list (List.mapi (fun j p -> (j, p)) plans)) in
  let steps = Array.of_list (List.concat_map (fun (j, p) -> plan_steps j p) (Array.to_list order)) in
  let first_cycle () =
    let r = Obs.report () in
    let builds = Layer.counter_sum r ~prefix:"cache." ~suffix:".builds" in
    let queries = Layer.counter_sum r ~prefix:"cache." ~suffix:".queries" in
    counts :=
      [
        ("solvers.nodes", float_of_int (Layer.counter_sum r ~prefix:"solver." ~suffix:".nodes"));
        ("solvers.pruned", float_of_int (Layer.counter_sum r ~prefix:"solver." ~suffix:".pruned"));
        ("solvers.cache_builds", float_of_int builds);
        ("solvers.cache_queries", float_of_int queries);
        ( "solvers.cache_hit_ratio",
          if queries = 0 then 0. else 1. -. (float_of_int builds /. float_of_int queries) );
      ]
  in
  let layers _ =
    [
      ("core.prepare_ms", Layer.mean_ms prepare_t);
      ("lbgraphs.apply_us", Layer.mean_us apply_t);
      ("solvers.lookup_us", Layer.mean_us lookup_t);
      ("solvers.search_us", Layer.mean_us search_t);
    ]
    @ !counts
  in
  {
    Workload.steps;
    classes = [| "table"; "search" |];
    first_cycle;
    layers;
    stop = Cache.clear;
  }

let workload = { Workload.name = "verify-inc"; setup }
