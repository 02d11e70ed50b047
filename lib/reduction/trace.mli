(** Structured observability for the lockstep reduction simulation.

    The simulation emits one {!event} per message and one per round;
    sinks are plain consumers.  Every message is tagged with its ordered
    (sender part, target part) pair; cut traffic is additionally
    attributed to the cut-edge index of the family's
    {!Ch_core.Framework.cut_info} (or [multicut_info]) descriptor, and
    every event carries the cumulative charged cut bits, so a trace
    replays the whole t-party transcript and its budget lines — overall
    and per part pair. *)

type event =
  | Msg of {
      round : int;
      sender : int;
      target : int;
      sender_part : int;  (** the party simulating the sender *)
      target_part : int;
      bits : int;
      cut : bool;
          (** crossed parts (charged on the part-pair's channel);
              equivalent to [sender_part <> target_part] *)
      edge : int option;  (** (multi)cut-edge index when [cut] *)
      cum_cut_bits : int;  (** charged total after this message *)
    }
  | Round of {
      round : int;
      cut_bits : int;  (** charged this round, all channels *)
      cut_messages : int;
      internal_bits : int;  (** same-part traffic this round, uncharged *)
      cum_cut_bits : int;
      budget : int;  (** (round+1)·|multicut|·B — the Theorem 1.1 line *)
      pair_bits : ((int * int) * int) list;
          (** per-edge-class budget lines: bits charged this round on
              each ordered part pair with traffic, sorted *)
    }

type sink = event -> unit

val null : sink

val collector : unit -> sink * (unit -> event list)
(** A sink accumulating events, and a function returning them in order. *)

val tee : sink -> sink -> sink

val to_json : event -> Ch_json.Jsonx.t
(** Fields in a fixed order: [type], [round], then the event's own
    fields as declared above, with [parts] and [pair_bits] keys spelled
    ["p-q"]. *)

val jsonl : out_channel -> sink
(** One JSON object per line. *)

val obs_sink : sink
(** Retargets events onto the shared {!Ch_obs.Obs} layer: bumps the
    [reduction.*] counters/histograms and, when an Obs JSONL sink is
    installed, emits each event's JSON into that stream — reduction
    traces and solver span events then land in one file. *)
