(** Span-tree reconstruction from a captured JSONL event stream.

    The {!Obs} sink stamps every [span_open]/[span_close] event with
    (pid, domain, trace, t_ns).  This module folds a decoded event list
    back into the aggregated tree shape {!Obs.report} produces live —
    including streams that interleave several processes, which a live
    report can never see.

    {b Joining:} within one (pid, domain) stream, opens and closes pair
    up as a stack (unbalanced closes are dropped; spans still open at
    the end of the stream close at the last event time).  Across
    streams, a completed root whose interval is contained in a span of
    another process — both clocks are the same machine-wide monotonic
    clock — is grafted under the innermost containing span whose
    effective (inherited) trace id is compatible, smallest roots first.
    One traced request therefore yields one tree spanning client,
    scheduler and engine.

    {!of_jsonl} is the one decoder of the span-event lines {!Obs}
    writes; the CLI's [profile --from] and the tests read captures
    through it. *)

type event = {
  e_open : bool;  (** [span_open] vs [span_close] *)
  e_span : string;
  e_pid : int;
  e_domain : int;
  e_trace : string option;
  e_t_ns : int64;
}

val of_jsonl : string list -> (event list, int * string) result
(** The span events of a JSONL capture, in line order.  Lines that parse
    but are not span events (a [serve_request] event, a reduction trace
    event) are skipped.  [Error (lineno, msg)] names the first line
    (1-based) that is not JSON, with {!Ch_json.Jsonx.parse}'s message. *)

val forest : event list -> Obs.span_report list
(** Aggregated span forest: same-name siblings merge (summed counts and
    durations), children sorted by name — the shape of
    [ (Obs.report ()).r_spans ]. *)

val to_report : event list -> Obs.report
(** The forest wrapped as a report (no counters or histograms), ready
    for {!Obs.pp_profile}. *)
