(** The serve daemon: a long-lived process boundary over the verification
    engine.

    One accept thread takes connections on a Unix or loopback TCP
    socket; one thread per connection reads request batches
    ({!Protocol}), fans each request as a job onto the bounded
    {!Scheduler}, and answers the batch when every slot resolves.  The
    daemon answers [ping], [stats], [metrics] and [health] from its own
    state; every family op runs through {!Ops.exec} — the code the CLI
    runs in-process — against the daemon's {!Warm} registry, so repeat
    plans are answered from memory or the sweep store.

    {b Backpressure:} a request the scheduler refuses (queue at depth,
    or draining) resolves to an [overloaded] error immediately — the
    connection never queues unboundedly.  A request whose [deadline_ms]
    elapsed before its job started resolves to [deadline_exceeded]
    without doing the work.

    {b Shutdown} ({!stop}): stop accepting, drain the scheduler (queued
    jobs finish and their responses flush), wake the connection threads,
    persist the warm state to the store, unlink the Unix socket.  The
    caller installs its own SIGTERM/SIGINT handlers and calls [stop] —
    signal policy stays in the CLI.

    {b Telemetry:} with [cfg_obs_out] the daemon enables {!Ch_obs.Obs}
    and streams one [serve_request] JSONL event per request (op, id,
    status, warmth, queue wait vs execution micros, optional trace id)
    alongside the usual span events into that file.  Every request runs
    under its [rq_trace] ({!Ch_obs.Obs.with_trace}), so server-side span
    events carry the id the client chose and a cross-process span tree
    joins up.  The [metrics] and [health] ops answer from the live
    registry; [metrics] renders the Prometheus-style page ({!Expose})
    with rates and latency quantiles windowed over a background sampler
    that snapshots the registry every [cfg_sample_period_s] seconds
    (non-positive disables the sampler — quantiles fall back to
    cumulative).  A connection whose first bytes are an HTTP [GET] gets
    a one-shot plain-text answer ([/metrics], [/health]) instead of the
    framed protocol. *)

type addr = Unix_socket of string | Tcp of int

type config = {
  cfg_addr : addr;
  cfg_workers : int;  (** scheduler worker threads *)
  cfg_queue_depth : int;  (** admission queue bound *)
  cfg_store_dir : string option;  (** sweep store to seed from / persist to *)
  cfg_obs_out : string option;  (** JSONL telemetry sink *)
  cfg_sample_period_s : float;
      (** metrics sampler period; [<= 0.] disables the sampler thread *)
}

type t

val start : config -> t
(** Bind, listen, spawn the accept thread, seed the warm registry.
    @raise Unix.Unix_error when the address cannot be bound. *)

val stop : t -> unit
(** Graceful drain as documented above.  Idempotent. *)

val warm : t -> Warm.t
(** The daemon's warm registry (the bench reads its counters). *)

(** {1 In-process service}

    The request executor, exposed for differential tests and the bench:
    [serve_batch t reqs] is exactly what a connection does with a decoded
    batch — scheduler admission, deadlines, warm lookups — without the
    socket hop.  [client] is the scheduler's fairness key (each real
    connection gets a distinct one); defaults to 0. *)

val serve_batch :
  ?client:int -> t -> Protocol.request list -> Protocol.response list
