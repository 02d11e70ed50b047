(** The family ops, written once: the daemon's workers run them for
    requests off the socket, and the [hardness] CLI runs them in-process
    for [verify], [reduction] and [replay].  The same op therefore yields
    the same payload on both surfaces (the serve tests difference the
    two), and each CLI command's text is a rendering of that payload. *)

val exec :
  ?trace:Ch_reduction.Trace.sink ->
  Warm.t ->
  Protocol.op ->
  (bool * Ch_json.Jsonx.t, Protocol.error_code * string) result
(** Run [Catalog], [Verify], [Reduction] or [Sweep_status] against the
    warm state.  [Ok (warm, payload)]: [warm] says a verify was answered
    from the response cache or the store rather than computed; concurrent
    identical verifies share one engine run.  A reduction's payload is
    its {!Ch_reduction.Bound.report_json} plus a [rows] array, one object
    per swept pair ([x], [y], [rounds], [cut_bits], [cut_messages],
    [correct], [oracle_ok]).  [trace] receives a reduction's per-message
    events.

    Errors: [Unknown_family] with the valid ids; [Unsupported] when the
    family lacks the engine or reduction the op needs; [Bad_request
    "family F at k=K: reason"] when the family, its engine or the pair
    space cannot run at that scale.  The daemon-state ops ([Ping],
    [Stats], [Metrics], [Health]) need a running daemon and answer
    [Unsupported]. *)

val with_family :
  string ->
  k:int ->
  (Ch_core.Registry.spec -> 'a) ->
  ('a, Protocol.error_code * string) result
(** [with_family id ~k f] looks the family up and runs [f] on its spec,
    with {!exec}'s [Unknown_family] and [Bad_request] errors — the guard
    every op runs under, shared with the CLI's [list], [sweep] and
    [profile]. *)
