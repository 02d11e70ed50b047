(* reduction-lockstep: the Theorem 1.1 simulation pair by pair — the
   lockstep run ([srun]), its partitioned-network oracle ([sref]) and
   [Bound.matches] between them.  mds and maxis at k=2 and bitgadget at
   k=4 (t=4 parties) over every connected pair, plus seeded samples of
   maxis at k=4 and hampath at k=2 (the only directed path).  maxcut
   (root solve ~100% of a pair) and mds at k=4 (~71%) are left out:
   they would measure the solver, not the simulation.  maxis k=2 pairs
   are the fastest 30% of the ops and mds k=2 pairs the next 30%, so
   the p50 falls among mds pairs; hampath pairs (~5 ms, 11%) hold the
   p99.  96 hampath samples keep the p99 from depending on which pairs
   a seed draws. *)

open Ch_core
module Obs = Ch_obs.Obs
module Graph = Ch_graph.Graph
module Digraph = Ch_graph.Digraph
module Simulate = Ch_reduction.Simulate
module Bound = Ch_reduction.Bound

type entry = { id : string; k : int; samples : int option }

let entries =
  [
    { id = "mds"; k = 2; samples = None };
    { id = "maxis"; k = 2; samples = None };
    { id = "bitgadget"; k = 4; samples = None };
    { id = "maxis"; k = 4; samples = Some 24 };
    { id = "hampath"; k = 2; samples = Some 96 };
  ]

let sp_lockstep = Obs.span "bench.lockstep"
let sp_oracle = Obs.span "bench.oracle"
let sp_solve = Obs.span "bench.root_solve"

let setup (ctx : Workload.ctx) =
  let host = ctx.Workload.host and traced = ctx.Workload.traced in
  let lockstep_t = Layer.acc () and oracle_t = Layer.acc () and solve_t = Layer.acc () in
  (* the root solve runs inside both srun and sref: layer times are self
     times, the root solve taken out of each *)
  let timed_solve f g = if traced then Layer.timed host sp_solve solve_t (fun () -> f g) else f g in
  let cut_bits = ref 0 and cut_messages = ref 0 in
  let counts = ref [] in
  let injected = ref (not ctx.Workload.inject) in
  let spec_of e =
    let s = Registry.find_exn (Ch_lbgraphs.Families.catalog ()) e.id in
    let rd = (Option.get s.Registry.reduction) e.k in
    let fam = s.Registry.scratch e.k in
    let name = Printf.sprintf "%s-k%d" e.id e.k in
    let accept = rd.Registry.rd_accept in
    match (rd.Registry.rd_solver, rd.Registry.rd_partition) with
    | Framework.Graph_solver f, None ->
        Simulate.gather_spec ~name fam ~solver:(fun (g : Graph.t) -> timed_solve f g) ~accept
    | Framework.Graph_solver f, Some partition ->
        Simulate.gather_spec_partitioned ~name fam ~partition
          ~solver:(fun (g : Graph.t) -> timed_solve f g) ~accept
    | Framework.Digraph_solver f, None ->
        Simulate.gather_spec_directed ~name fam
          ~solver:(fun (g : Digraph.t) -> timed_solve f g) ~accept
    | Framework.Digraph_solver _, Some _ -> invalid_arg "reduction-lockstep: partitioned digraph"
  in
  let self acc span f =
    let s0 = Layer.total_ms solve_t in
    let t0 = Obs.Clock.now_ns () in
    let r = Obs.with_span span f in
    let ms = Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e6 *. Host.factor host in
    Layer.add acc (ms -. (Layer.total_ms solve_t -. s0));
    r
  in
  let ops =
    List.concat
      (List.mapi
         (fun j e ->
           let sp = spec_of e in
           let fam = sp.Simulate.sfam in
           let pairs =
             match e.samples with
             | None -> Bound.exhaustive_pairs fam
             | Some samples ->
                 Bound.sampled_pairs fam ~seed:((ctx.Workload.seed * 1000) + j) ~samples
           in
           let pairs, _dropped = Bound.connected_pairs fam pairs in
           List.map
             (fun (x, y) ->
               let expected = fam.Framework.f x y in
               let op () =
                 let t, r =
                   if traced then
                     let t = self lockstep_t sp_lockstep (fun () -> sp.Simulate.srun x y) in
                     (t, self oracle_t sp_oracle (fun () -> sp.Simulate.sref x y))
                   else (sp.Simulate.srun x y, sp.Simulate.sref x y)
                 in
                 let t =
                   if !injected then t
                   else (injected := true; { t with Simulate.cut_bits = t.Simulate.cut_bits + 1 })
                 in
                 if traced then begin
                   cut_bits := !cut_bits + t.Simulate.cut_bits;
                   cut_messages := !cut_messages + t.Simulate.cut_messages
                 end;
                 Check.transcript ~expected t r
               in
               (j, op))
             pairs)
         entries)
  in
  (* one cycle: every pair of every entry, in a seeded order *)
  let order = Workload.shuffle ctx.Workload.seed (Array.of_list ops) in
  let steps = Array.map (fun (j, op) -> Loop.Op (j, op)) order in
  let first_cycle () =
    let r = Obs.report () in
    counts :=
      [
        ("congest.rounds", float_of_int (Layer.counter r "congest.rounds"));
        ("congest.messages", float_of_int (Layer.counter r "congest.messages"));
        ("reduction.cut_bits", float_of_int !cut_bits);
        ("reduction.cut_messages", float_of_int !cut_messages);
      ]
  in
  let layers _ =
    [
      ("reduction.lockstep_ms", Layer.mean_ms lockstep_t);
      ("congest.oracle_ms", Layer.mean_ms oracle_t);
      (* per pair: the root solves inside srun and sref together *)
      ("solvers.root_solve_ms",
        if Layer.count lockstep_t = 0 then 0.
        else Layer.total_ms solve_t /. float_of_int (Layer.count lockstep_t));
    ]
    @ !counts
  in
  {
    Workload.steps;
    classes =
      Array.of_list (List.map (fun e -> Printf.sprintf "%s-k%d" e.id e.k) entries);
    first_cycle;
    layers;
    stop = ignore;
  }

let workload = { Workload.name = "reduction-lockstep"; setup }
