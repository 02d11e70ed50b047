module Obs = Ch_obs.Obs

type acc = { mutable sum : float; mutable n : int }

let acc () = { sum = 0.; n = 0 }

let add a x =
  a.sum <- a.sum +. x;
  a.n <- a.n + 1

let count a = a.n
let total_ms a = a.sum
let mean_ms a = if a.n = 0 then 0. else a.sum /. float_of_int a.n
let mean_us a = 1e3 *. mean_ms a

let timed host span a f =
  Obs.with_span span (fun () ->
      let t0 = Obs.Clock.now_ns () in
      let r = f () in
      let ns = Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) in
      add a (ns /. 1e6 *. Host.factor host);
      r)

let counter (r : Obs.report) name =
  Option.value ~default:0 (List.assoc_opt name r.Obs.r_counters)

let counter_sum (r : Obs.report) ~prefix ~suffix =
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix name && String.ends_with ~suffix name then
        acc + v
      else acc)
    0 r.Obs.r_counters

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" Fun.id
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan
