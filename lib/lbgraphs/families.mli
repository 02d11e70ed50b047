(** The one aggregation point of every lower-bound family spec: the
    bench, the [hardness] CLI, the reduction sweeps and the tests all
    consume this catalog (see {!Ch_core.Registry}).  Adding a family is a
    one-module change — export its spec(s) and append them here. *)

val all : Ch_core.Registry.spec list
(** Every registered spec, in the canonical listing order. *)

val catalog : unit -> Ch_core.Registry.t
(** The registry over {!all}, built once (id uniqueness is checked on
    first use). *)

val catalog_json : unit -> Ch_json.Jsonx.t
(** {!Ch_core.Registry.to_json} of {!catalog} — the serve [catalog]
    answer and [hardness list --json] — built once per process (it
    builds every family at its default k), so every call returns the
    same value. *)
