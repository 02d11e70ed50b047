type event =
  | Msg of {
      round : int;
      sender : int;
      target : int;
      sender_part : int;
      target_part : int;
      bits : int;
      cut : bool;
      edge : int option;
      cum_cut_bits : int;
    }
  | Round of {
      round : int;
      cut_bits : int;
      cut_messages : int;
      internal_bits : int;
      cum_cut_bits : int;
      budget : int;
      pair_bits : ((int * int) * int) list;
    }

type sink = event -> unit

let null _ = ()

let collector () =
  let acc = ref [] in
  ((fun e -> acc := e :: !acc), fun () -> List.rev !acc)

let tee a b e =
  a e;
  b e

let to_json =
  let open Ch_json.Jsonx in
  function
  | Msg m ->
      let parts = Printf.sprintf "%d-%d" m.sender_part m.target_part in
      Obj
        ([
           ("type", Str "msg"); ("round", Int m.round);
           ("sender", Int m.sender); ("target", Int m.target);
           ("parts", Str parts); ("bits", Int m.bits); ("cut", Bool m.cut);
         ]
        @ (match m.edge with Some i -> [ ("cut_edge", Int i) ] | None -> [])
        @ [ ("cum_cut_bits", Int m.cum_cut_bits) ])
  | Round r ->
      let pair ((p, q), b) = (Printf.sprintf "%d-%d" p q, Int b) in
      Obj
        [
          ("type", Str "round"); ("round", Int r.round);
          ("cut_bits", Int r.cut_bits); ("cut_messages", Int r.cut_messages);
          ("internal_bits", Int r.internal_bits);
          ("cum_cut_bits", Int r.cum_cut_bits); ("budget", Int r.budget);
          ("pair_bits", Obj (List.map pair r.pair_bits));
        ]

let jsonl oc e =
  output_string oc (Ch_json.Jsonx.to_string (to_json e));
  output_char oc '\n'

(* Retarget the trace onto the shared telemetry layer: counters and
   histograms go to Obs aggregation (merged into reports alongside the
   solver/cache/congest counters), and when an Obs JSONL sink is
   installed every event lands in the same stream as the span events. *)
module Obs = Ch_obs.Obs

let c_cut_msgs = Obs.counter "reduction.cut_messages"
let c_cut_bits = Obs.counter "reduction.cut_bits"
let c_internal_bits = Obs.counter "reduction.internal_bits"
let c_rounds = Obs.counter "reduction.rounds"
let h_round_cut_bits = Obs.histogram "reduction.round_cut_bits"

let obs_sink e =
  (match e with
  | Msg { bits; cut; _ } ->
      if cut then begin
        Obs.bump c_cut_msgs;
        Obs.incr c_cut_bits bits
      end
      else Obs.incr c_internal_bits bits
  | Round { cut_bits; _ } ->
      Obs.bump c_rounds;
      Obs.observe h_round_cut_bits cut_bits);
  (* rendering the JSON line costs more than the counters above — skip
     it entirely unless an event stream is actually attached *)
  if Obs.sink_installed () then
    Obs.emit (Ch_json.Jsonx.to_string (to_json e))
