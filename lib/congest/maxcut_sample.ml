open Ch_graph
open Ch_solvers

type result = {
  estimate : int;
  sample_optimum : int;
  sampled_edges : int;
  stats : Network.stats;
}

let sample_probability ?(s = 1) g =
  let n = float_of_int (Graph.n g) and m = float_of_int (max 1 (Graph.m g)) in
  let logn = log n /. log 2.0 in
  min 1.0 (n *. (logn ** float_of_int s) /. m)

let run ?seed ?p g =
  let n = Graph.n g in
  if n > 30 then invalid_arg "Maxcut_sample.run: n > 30 (exact solver limit)";
  let p = match p with Some p -> p | None -> sample_probability g in
  let sampled = ref 0 in
  let edge_filter ctx (_, _, _) =
    let keep = Random.State.float (Lazy.force ctx.Network.rng) 1.0 < p in
    if keep then incr sampled;
    keep
  in
  let f sample = fst (Maxcut.max_cut sample) in
  let algo = Gather.algo ~edge_filter ~root:0 ~f () in
  let states, stats = Network.run ?seed g algo in
  let sample_optimum =
    match algo.Network.output states.(0) with
    | Some a -> a
    | None -> assert false
  in
  {
    estimate = int_of_float (float_of_int sample_optimum /. p);
    sample_optimum;
    sampled_edges = !sampled;
    stats;
  }
