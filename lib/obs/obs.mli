(** Repo-wide telemetry: monotonic-clock spans, named counters and
    log-scale histograms, aggregated per worker domain and merged
    deterministically at report time.

    {1 Determinism contract}

    Counter totals and histogram contents reported by {!report} depend
    only on the work performed, never on how that work was scheduled
    across domains: every handle is interned globally by name, every
    domain accumulates into domain-local storage, and {!report} merges
    all domains with order-independent sums.  Span {e trees} are merged
    path-wise (two domains recording [a > b] contribute to the same
    node), so span counts driven by per-pair work are schedule-
    independent too; span wall times are measured per domain and summed,
    so they are stable in shape but not bit-identical across runs.

    {1 Cost model}

    Every operation starts with a single check of the enabled flag; when
    telemetry is off (the default) the overhead is that one branch.  The
    flag starts from the [CH_OBS] environment variable ([1]/[true]/
    [yes]/[on]) and can be flipped programmatically with {!set_enabled}.

    Timing uses the monotonic clock ([clock_gettime(CLOCK_MONOTONIC)] via
    bechamel's noalloc stub), immune to wall-clock adjustments. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

module Clock : sig
  val now_ns : unit -> int64
  (** Monotonic timestamp in nanoseconds.  Always live, independent of
      the enabled flag — bench timing uses this directly. *)

  val seconds_since : int64 -> float
  (** [seconds_since t0] is [now_ns () - t0] in seconds. *)
end

(** {1 Handles}

    Handles are interned globally by name: [counter "x"] called from two
    modules (or twice) yields the same counter.  Interning takes a
    mutex; do it once at module init, not on hot paths. *)

type counter
type span
type histogram

val counter : string -> counter

val bump : counter -> unit
(** Add 1 to the calling domain's cell of the counter. *)

val incr : counter -> int -> unit
(** Add [n] (clamped to [>= 0]) to the calling domain's cell; totals
    saturate at [max_int] rather than wrapping. *)

val span : string -> span

val with_span : span -> (unit -> 'a) -> 'a
(** Run the thunk under the span: bumps the span's count, accumulates
    its monotonic duration, and nests it under the innermost open span
    of the calling domain.  Exception-safe (the span is closed on
    raise).  When a sink is installed, emits [span_open]/[span_close]
    JSONL events. *)

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record a sample into log2-scale buckets: bucket 0 holds samples
    [<= 0]; bucket [i >= 1] holds samples in [[2^(i-1), 2^i - 1]].
    Tracks count, (saturating) sum and max alongside the buckets. *)

(** {1 Pool context}

    Worker domains do not inherit the submitting domain's open-span
    stack.  A pool captures {!current_ctx} at batch submission and wraps
    each task in {!with_ctx}: the worker's spans then attach under the
    same span path as the submitter's, so the merged tree has one shape
    for any [CH_JOBS].  [with_ctx] does not bump counts or accumulate
    time for the path nodes themselves. *)

type ctx

val current_ctx : unit -> ctx
val with_ctx : ctx -> (unit -> 'a) -> 'a

(** {1 Trace context}

    A request-scoped identifier stamped onto every span event the
    calling domain emits, so one logical request can be joined across
    process boundaries (a client and the daemon) from their JSONL
    sinks.  The slot is per {e domain}, like the span stack: systhreads
    sharing a domain share it, so attribution under concurrent
    same-domain requests is best-effort — exactly the tolerance the span
    stack already has.  Independent of the enabled flag (setting a trace
    while disabled is cheap and harmless). *)

val set_trace : string option -> unit
val current_trace : unit -> string option

val with_trace : string option -> (unit -> 'a) -> 'a
(** Run the thunk with the calling domain's trace id set, restoring the
    previous value on exit (exception-safe). *)

(** {1 JSONL sink}

    An optional line sink shared by span events ({!with_span}) and any
    client that calls {!emit} (e.g. reduction trace events), so solver
    profiles and reduction traces land in one stream.  Lines are written
    under a mutex; each line is one JSON object. *)

val set_sink : (string -> unit) option -> unit

val sink_installed : unit -> bool
(** Whether a sink is currently installed.  Clients that must {e build}
    an event line (e.g. render JSON) should check this first — {!emit}
    on [None] is cheap, but constructing the line is not. *)

val emit : string -> unit
val jsonl : out_channel -> string -> unit
(** [set_sink (Some (jsonl oc))] writes one line per event to [oc]. *)

(** {1 Reports} *)

type span_report = {
  sp_name : string;
  sp_count : int;
  sp_ns : int64;
  sp_children : span_report list;  (** sorted by name *)
}

type bucket = { b_lo : int; b_hi : int; b_count : int }

type hist_report = {
  h_name : string;
  h_count : int;
  h_sum : int;
  h_max : int;
  h_buckets : bucket list;  (** non-empty buckets, ascending *)
}

type report = {
  r_enabled : bool;
  r_counters : (string * int) list;  (** every interned counter, by name *)
  r_spans : span_report list;
  r_hists : hist_report list;
}

val report : unit -> report
(** Merge all domains' telemetry.  Deterministic: counters sorted by
    name with saturating sums; span trees merged path-wise with children
    sorted by name; histogram buckets summed. *)

val reset : unit -> unit
(** Zero all domains' telemetry (interned names survive).  Must not be
    called while spans are open or a pool batch is in flight. *)

val quantile : hist_report -> float -> int
(** [quantile h q] is the upper bound of the log2 bucket holding the
    sample of rank [ceil (q * count)] (clamped to [[1, count]]); [0] on
    an empty histogram or when the rank lands in the [<= 0] bucket.  A
    deterministic upper estimate: the true sample lies within a factor
    of 2 below the returned bound. *)

(** {1 Time series}

    A fixed-capacity ring of timestamped {!report} snapshots, sampled
    periodically by a long-lived process (the serve daemon's sampler
    thread), answering "what happened over the retained window":
    counter deltas and rates, and windowed histograms for live latency
    quantiles.  Sampling is read-only with respect to the registry, so
    it never perturbs counter determinism. *)

module Series : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Ring capacity in samples (default 120, minimum 2); once full, each
      new sample overwrites the oldest. *)

  val capacity : t -> int

  val length : t -> int
  (** Samples currently retained, [<= capacity]. *)

  val sample : ?now_ns:int64 -> t -> unit
  (** Append one snapshot of the merged report.  [now_ns] overrides the
      timestamp (tests); defaults to the monotonic clock. *)

  val window_s : t -> float
  (** Seconds between the oldest and newest retained samples; [0] with
      fewer than two samples. *)

  val delta : t -> string -> int
  (** Newest minus oldest value of a counter over the window (clamped to
      [>= 0]); [0] with fewer than two samples or an unknown name. *)

  val rate : t -> string -> float
  (** [delta / window_s]; [0] on an empty window. *)

  val hist_total : t -> string -> hist_report option
  (** The named histogram as of the newest sample (cumulative). *)

  val hist_delta : t -> string -> hist_report option
  (** The named histogram restricted to the window: newest buckets minus
      oldest, count and sum differenced; [h_max] keeps the newest
      cumulative max (a log-scale approximation).  [None] with fewer
      than two samples or an unknown name. *)
end

val report_json : report -> Ch_json.Jsonx.t
(** The report as one JSON object:
    [{"enabled": .., "counters": [{"name","value"}..],
      "spans": [{"name","count","total_ns","children"}..],
      "histograms": [{"name","count","sum","max","buckets"}..]}].
    Printed with {!Ch_json.Jsonx.to_document}, each counter object sits
    on its own line, so text tooling can diff counter sets across
    runs. *)

val pp_profile : ?wall_ns:int64 -> Format.formatter -> report -> unit
(** Render the span tree with durations and percentages (of [wall_ns]
    when given, else of the top-level span total), followed by counters
    (descending by value) and histogram summaries. *)
