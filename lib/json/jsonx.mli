(** The repo's one JSON codec: every JSON document it writes — bench
    files, the [hardness list --json] catalog, obs span events and
    reports, reduction traces and serve frames — is a {!t} printed here,
    and every one it reads is parsed here.  It lives in its own library,
    [ch_json], which depends on nothing, so every layer can reach it.

    It implements just enough of RFC 8259: the seven value forms, string
    escapes (including [\uXXXX], decoded to UTF-8), and integer/float
    numbers.  Strings are UTF-8 on both sides: the printer writes each
    byte that starts no valid UTF-8 sequence as U+FFFD, so every
    document it prints is valid UTF-8, and the parser rejects invalid
    UTF-8 inside a string.  The codec round-trips: [parse (to_string v)]
    returns [Ok v] for every value whose strings are valid UTF-8, with
    [Int]/[Float] kept distinct ([Float] renders with a decimal point or
    exponent even when integral).  Parsing is total — malformed input
    yields [Error], never an exception — because the bytes may come
    straight off a socket. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One line: object fields keep their given order, and members and
    elements are separated by [": "] and [", "].  A [Float] prints as
    the shorter of [%.15g] and [%.17g] that reads back equal.
    @raise Invalid_argument on [Float nan] or infinities — JSON has no
    spelling for them. *)

val to_document : t -> string
(** {!to_string} with one layout rule for files, and a final newline:
    each element of an array of objects starts a new line, so line
    tools see one bench entry, counter or catalog family per line. *)

val parse : string -> (t, string) result
(** Parse exactly one JSON value spanning the whole string (trailing
    whitespace allowed).  Errors carry a byte offset. *)

(** {1 Accessors}

    Total lookups: [None] on shape mismatch, so a malformed document
    degrades to an error value (a [bad_request] response, a CLI error
    line) instead of an exception. *)

val mem : string -> t -> t option
(** Field of an [Obj], [None] otherwise. *)

val as_int : t -> int option
(** [Int n], or a [Float] that is exactly integral. *)

val as_float : t -> float option
(** [Float f], or an [Int] widened. *)

val as_str : t -> string option
val as_bool : t -> bool option
val as_arr : t -> t list option
