(** The serve wire protocol: request/response batches over length-prefixed
    JSON frames.

    {1 Framing}

    Each frame is a 4-byte big-endian payload length followed by the
    payload bytes; payloads above {!max_frame} are rejected before any
    allocation.  Framing is exposed twice: as pure string functions
    ({!frame} / {!unframe}) the property tests drive, and as
    [Unix.file_descr] I/O ({!read_frame} / {!write_frame}) the server and
    client use.

    {1 Shape}

    A request frame is [{"requests": [{...}, ...]}] — a batch, the unit
    of admission.  Each request object carries an [id] (echoed back, so
    a client can match out-of-order completions), an [op], and the op's
    parameters.  A response frame is [{"responses": [{...}, ...]}] with
    one object per request, each [{"id", "ok", "warm", "micros", ...}] —
    on [ok: true] a [body] object, on [ok: false] an [error] code plus
    [message].  A frame that fails to parse at all yields a single
    response with [id: -1] and code [bad_request]. *)

open Ch_json

type engine = Auto | Incremental | Scratch

(** The {!Ch_core.Pairs.mode} of a request, constructors re-exported;
    on the wire ["exhaustive"] or [{"seed": S, "samples": M}]. *)
type vmode = Ch_core.Pairs.mode =
  | Exhaustive
  | Sampled of { seed : int; samples : int }

type op =
  | Ping
  | Catalog
  | Stats
  | Metrics  (** Prometheus-style text exposition of the live registry *)
  | Health  (** liveness summary: uptime, queue depth, warm entries *)
  | Verify of { family : string; k : int; vmode : vmode; engine : engine }
  | Reduction of {
      family : string;
      k : int;
      exhaustive : bool;
      pairs : int;
      seed : int;
    }
  | Sweep_status of { family : string; k : int; shards : int; vmode : vmode }

type request = {
  rq_id : int;
  rq_op : op;
  rq_deadline_ms : int option;
  rq_trace : string option;
      (** client-chosen trace id, stamped onto every span event the
          daemon emits while serving this request (wire field
          ["trace"]), so client- and server-side JSONL sinks join into
          one tree *)
}

type error_code =
  | Bad_request  (** unparseable or ill-shaped request *)
  | Unknown_family  (** family id not in the registry *)
  | Overloaded  (** admission queue full — retry later *)
  | Deadline_exceeded  (** [deadline_ms] elapsed before the op started *)
  | Unsupported  (** op needs a capability the family lacks *)
  | Internal  (** solver/IO failure while serving *)

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

type outcome = Payload of Jsonx.t | Error of error_code * string

type response = {
  rs_id : int;
  rs_outcome : outcome;
  rs_warm : bool;  (** served from the warm-cache registry *)
  rs_micros : int;  (** service time, microseconds *)
}

(** {1 JSON codec} *)

val vmode_json : vmode -> Jsonx.t
(** The wire form, also the ["mode"] field of a verify response. *)

val encode_requests : request list -> string
val decode_requests : string -> (request list, string) result
val encode_responses : response list -> string
val decode_responses : string -> (response list, string) result

(** {1 Pure framing} *)

val max_frame : int
(** Maximum payload length, 8 MiB. *)

val frame : string -> string
(** Prefix the payload with its 4-byte big-endian length.
    @raise Invalid_argument above {!max_frame}. *)

type unframed =
  | Frame of string * int  (** payload, next offset *)
  | Need_more  (** the buffer ends mid-header or mid-payload *)
  | Too_large of int  (** declared length above {!max_frame} *)

val unframe : string -> pos:int -> unframed
(** Decode one frame starting at [pos] of the buffer. *)

(** {1 Socket framing} *)

exception Protocol_error of string
(** Torn header/payload (EOF mid-frame) or an oversized declared
    length.  The server answers the connection with a [bad_request]
    response and closes; the client surfaces it. *)

val read_frame : Unix.file_descr -> string option
(** One payload, or [None] on clean EOF at a frame boundary.  Restarts
    on [EINTR].  @raise Protocol_error as above. *)

val write_frame : Unix.file_descr -> string -> unit
(** @raise Invalid_argument above {!max_frame}. *)

(** {1 First-read sniffing}

    A framed payload never begins with the bytes ["GET "] — as a length
    header they would decode to ~1.2 GiB, far above {!max_frame} — so
    the server sniffs a connection's first four bytes to also answer
    plain HTTP scrapes ([curl], Prometheus) on the same socket. *)

type first =
  | First_frame of string  (** a normal framed payload *)
  | Http_get of string
      (** an HTTP GET; the payload is the request path.  The request
          line and headers (8 KiB cap) have been drained — the caller
          writes a minimal HTTP response and closes. *)

val read_first : Unix.file_descr -> first option
(** First read on a fresh connection: [None] on clean EOF.
    @raise Protocol_error on a torn frame or an oversized HTTP
    request. *)
