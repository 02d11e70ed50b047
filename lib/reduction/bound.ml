open Ch_cc
open Ch_core

type row = {
  bx : Bits.t;
  by : Bits.t;
  bt : Simulate.transcript;
  br : Simulate.reference;
  bmatch : bool;
}

type report = {
  rep_name : string;
  rep_n : int;
  rep_input_bits : int;
  rep_parties : int;
  rep_cut : int;
  rep_bandwidth : int;
  rep_pairs : int;
  rep_rounds_max : int;
  rep_cut_bits_max : int;
  rep_budget_max : int;
  rep_bits_per_round : float;
  rep_cc_bits : int;
  rep_lb_rounds : float;
  rep_all_correct : bool;
  rep_all_match : bool;
  rep_all_within_budget : bool;
}

let cc_bits ~input_bits = function
  | `Disj -> Commfn.cc_disj_lower_bound input_bits
  | `Eq -> input_bits + 1

(* The exhaustive K <= 5 cap is the reduction sweep's cost limit (a
   lockstep simulation and its oracle run per pair), not a pair-space
   guard: that is [Pairs.total]. *)
let pairs fam mode =
  let k = fam.Framework.input_bits in
  if mode = Pairs.Exhaustive && k > 5 then
    invalid_arg "Bound.exhaustive_pairs: K > 5";
  let n = Pairs.total ~k mode in
  List.init n (Pairs.pair_at ~k mode)

let exhaustive_pairs fam = pairs fam Pairs.Exhaustive
let sampled_pairs fam ~seed ~samples =
  pairs fam (Pairs.Sampled { seed; samples })

let connected_pairs fam ps =
  let keep, skip =
    List.partition
      (fun (x, y) -> Framework.connected (fam.Framework.build x y))
      ps
  in
  (keep, List.length skip)

let matches (t : Simulate.transcript) (r : Simulate.reference) =
  t.Simulate.cut_bits = r.Simulate.ref_cut_bits
  && t.Simulate.cut_messages = r.Simulate.ref_cut_messages
  && t.Simulate.rounds = r.Simulate.ref_rounds
  && t.Simulate.answer = r.Simulate.ref_answer

let sweep ?trace (spec : Simulate.spec) pairs =
  let rows =
    List.map
      (fun (x, y) ->
        let t = spec.Simulate.srun ?trace x y in
        let r = spec.Simulate.sref x y in
        { bx = x; by = y; bt = t; br = r; bmatch = matches t r })
      pairs
  in
  let fam = spec.Simulate.sfam in
  let n = fam.Framework.nvertices and k = fam.Framework.input_bits in
  let cut, bandwidth =
    match rows with
    | r :: _ -> (r.bt.Simulate.cut_size, r.bt.Simulate.bandwidth)
    | [] -> (Framework.cut_size fam, 0)
  in
  let fold f init = List.fold_left (fun acc r -> f acc r.bt) init rows in
  let pairs_n = List.length rows in
  let report =
    {
      rep_name = spec.Simulate.sname;
      rep_n = n;
      rep_input_bits = k;
      rep_parties = spec.Simulate.sparties;
      rep_cut = cut;
      rep_bandwidth = bandwidth;
      rep_pairs = pairs_n;
      rep_rounds_max = fold (fun acc t -> max acc t.Simulate.rounds) 0;
      rep_cut_bits_max = fold (fun acc t -> max acc t.Simulate.cut_bits) 0;
      rep_budget_max = fold (fun acc t -> max acc t.Simulate.budget) 0;
      rep_bits_per_round =
        (if pairs_n = 0 then 0.0
         else
           fold
             (fun acc t ->
               acc
               +. (float_of_int t.Simulate.cut_bits /. float_of_int t.Simulate.rounds))
             0.0
           /. float_of_int pairs_n);
      rep_cc_bits = cc_bits ~input_bits:k spec.Simulate.scc;
      rep_lb_rounds = Framework.lower_bound_rounds ~input_bits:k ~cut ~n;
      rep_all_correct = List.for_all (fun r -> r.bt.Simulate.correct) rows;
      rep_all_match = List.for_all (fun r -> r.bmatch) rows;
      rep_all_within_budget =
        List.for_all (fun r -> r.bt.Simulate.within_budget) rows;
    }
  in
  (rows, report)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%s: n=%d K=%d t=%d |cut|=%d B=%d@,\
     pairs=%d rounds<=%d cut-bits<=%d budget<=%d bits/round=%.1f@,\
     CC(f)>=%d bits => Omega(%.2f) rounds@,\
     all-correct=%b transcript=oracle=%b within-budget=%b@]"
    r.rep_name r.rep_n r.rep_input_bits r.rep_parties r.rep_cut r.rep_bandwidth
    r.rep_pairs
    r.rep_rounds_max r.rep_cut_bits_max r.rep_budget_max r.rep_bits_per_round
    r.rep_cc_bits r.rep_lb_rounds r.rep_all_correct r.rep_all_match
    r.rep_all_within_budget

let sweep_registry ?trace ?seed:(sample_seed = 41) ?bandwidth_factor
    ?(exhaustive = false) ?(samples = 8) (s : Registry.spec) ~k =
  match Simulate.registry_spec ?bandwidth_factor s ~k with
  | None -> None
  | Some spec ->
      let fam = spec.Simulate.sfam in
      let mode =
        if exhaustive then Pairs.Exhaustive
        else Pairs.Sampled { seed = sample_seed; samples }
      in
      let keep, skipped = connected_pairs fam (pairs fam mode) in
      let rows, report = sweep ?trace spec keep in
      Some (rows, report, skipped)
