(** On-disk content-addressed store for sweep artifacts.

    One directory per plan key under the store root:

    {v
    <root>/<key>/shard-<index %04d>.blk   per-shard verdict block
    <root>/<key>/memo-0.snap              the plan's Cache snapshot
    v}

    The key ({!Sweep.store_key}) folds in the core's structural hash and
    every plan parameter, so two different sweeps can never exchange
    blocks.  Every artifact is written to a temp file unique to its
    writer and [rename]d into place — a killed process leaves either the
    old file or the new one, never a torn block — and carries a
    checksummed header, so a truncated or bit-flipped file reads back as
    {!Corrupt}, never as data.

    {b Concurrency:} all writers of one store run in one process — the
    domains of a sweep's pool, the daemon's scheduler threads.  Any of
    them may write the same artifact at once; each write commits whole
    at its [rename], and the last one wins.

    Block format (text): a [chshard1 <index> <count> <md5>] header line,
    then the [count] verdicts as one ['0']/['1'] line; [md5] is the
    payload digest.  Snapshot format: a [chsnap1 <len> <md5>] header
    line, then the [len] raw snapshot bytes. *)

type t

type 'a read =
  | Value of 'a
  | Missing  (** never written — recompute, nothing to report *)
  | Corrupt
      (** present but failing its header parse, length, index or
          checksum — report, then recompute *)

val open_ : dir:string -> key:string -> t
(** Create (or reopen) [dir/key], making parent directories as
    needed. *)

val find : dir:string -> key:string -> t option
(** Reopen [dir/key] when it exists, creating nothing: the reader for
    status queries and lookups, which must not leave a directory behind
    for a plan that was never run. *)

val dir : t -> string
(** The plan directory, [dir/key]. *)

val write_block : t -> index:int -> bool array -> unit
val read_block : t -> index:int -> bool array read

val write_snapshot : t -> string -> unit
val read_snapshot : t -> string read
(** The plan's memo snapshot, [memo-0.snap]. *)
