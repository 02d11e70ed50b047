module Obs = Ch_obs.Obs
module A1 = Bigarray.Array1

type step =
  | Op of int * (unit -> bool)
  | Busy of (unit -> bool)
  | Aside of (unit -> bool)

(* Room for 2^22 operations: more than 60 s of the fastest workload. *)
let capacity = 1 lsl 22

type samples = {
  lat : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
  raw : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
  cls : (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t;
}

type result = {
  ops : int;
  failed : int;
  cycles : int;
  wall_s : float;
  cycle_busy_s : float array;
  cycle_raw_s : float array;
  cycle_probe_ms : float array;
  samples : samples;
}

let reported = ref 0

let guarded f =
  try f ()
  with e ->
    if !reported < 5 then begin
      incr reported;
      Printf.eprintf "perfbench: step raised %s\n%!" (Printexc.to_string e)
    end;
    false

let run ~host ~seconds ?(min_ops = 1000) ?(min_cycles = 1) ?(on_cycle = fun _ -> ()) steps =
  let s =
    {
      lat = A1.create Bigarray.float64 Bigarray.c_layout capacity;
      raw = A1.create Bigarray.float64 Bigarray.c_layout capacity;
      cls = A1.create Bigarray.int8_unsigned Bigarray.c_layout capacity;
    }
  in
  let per_cycle =
    Array.fold_left (fun n -> function Op _ -> n + 1 | _ -> n) 0 steps
  in
  let ops = ref 0 and busy = ref 0. and busy_raw = ref 0. and failed = ref 0 in
  let cycle_busy = ref [] and cycle_raw = ref [] and cycle_probe = ref [] in
  Host.probe host;
  let t_start = Obs.Clock.now_ns () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let timed f =
    let t0 = Obs.Clock.now_ns () in
    let ok = guarded f in
    let raw_s = Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9 in
    let c = raw_s *. Host.factor host in
    busy := !busy +. c;
    busy_raw := !busy_raw +. raw_s;
    if not ok then incr failed;
    (c, raw_s)
  in
  let cycles = ref 0 in
  while
    (!cycles < min_cycles || !ops < min_ops || Obs.Clock.now_ns () < deadline)
    && !ops + per_cycle <= capacity
  do
    Gc.full_major ();
    let busy0 = !busy and raw0 = !busy_raw and n0, sum0 = Host.tally host in
    Array.iter
      (fun step ->
        Host.tick host;
        match step with
        | Aside f -> if not (guarded f) then incr failed
        | Busy f -> ignore (timed f)
        | Op (k, f) ->
            let c, raw_s = timed f in
            A1.unsafe_set s.lat !ops (c *. 1e3);
            A1.unsafe_set s.raw !ops (raw_s *. 1e3);
            A1.unsafe_set s.cls !ops k;
            incr ops)
      steps;
    cycle_busy := (!busy -. busy0) :: !cycle_busy;
    cycle_raw := (!busy_raw -. raw0) :: !cycle_raw;
    (let n, sum = Host.tally host in
     cycle_probe :=
       (if n = n0 then Host.last_ms host else (sum -. sum0) /. float_of_int (n - n0))
       :: !cycle_probe);
    incr cycles;
    on_cycle !cycles
  done;
  let arr l = Array.of_list (List.rev l) in
  {
    ops = !ops;
    failed = !failed;
    cycles = !cycles;
    wall_s = Obs.Clock.seconds_since t_start;
    cycle_busy_s = arr !cycle_busy;
    cycle_raw_s = arr !cycle_raw;
    cycle_probe_ms = arr !cycle_probe;
    samples = s;
  }

let median_rate r busy =
  let per_cycle = float_of_int r.ops /. float_of_int r.cycles in
  Stats.median (Array.map (fun b -> per_cycle /. b) busy)

let rate r = median_rate r r.cycle_busy_s
let rate_raw r = median_rate r r.cycle_raw_s
let latencies r = Array.init r.ops (fun i -> r.samples.lat.{i})
let raw_latencies r = Array.init r.ops (fun i -> r.samples.raw.{i})

let class_latencies r k =
  let out = ref [] in
  for i = r.ops - 1 downto 0 do
    if r.samples.cls.{i} = k then out := r.samples.lat.{i} :: !out
  done;
  Array.of_list !out
