(** Fixed-capacity bit sets over the integers [0, capacity).

    Used pervasively by the exact solvers, where sets of vertices must be
    intersected and scanned millions of times during branch and bound. *)

type t

val create : int -> t
(** [create capacity] is the empty set able to hold [0 .. capacity-1]. *)

val capacity : t -> int

val full : int -> t
(** [full capacity] contains every element of [0 .. capacity-1]. *)

val copy : t -> t

val clear : t -> unit
(** Remove every element (in place). *)

val copy_into : t -> t -> unit
(** [copy_into dst src] makes [dst] equal to [src] without allocating.
    The capacities must match. *)

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val cardinal : t -> int

val is_empty : t -> bool

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is [true] when every element of [a] is in [b]. *)

val union_into : t -> t -> unit
(** [union_into dst src] adds all elements of [src] to [dst]. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] removes from [dst] everything not in [src]. *)

val diff_into : t -> t -> unit
(** [diff_into dst src] removes all elements of [src] from [dst]. *)

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val inter_cardinal : t -> t -> int

val intersects : t -> t -> bool

val choose : t -> int
(** Smallest element. @raise Not_found on the empty set. *)

val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list

val of_list : int -> int list -> t

val pp : Format.formatter -> t -> unit

(** {1 Word-level bit counts} *)

val popcount : int -> int
(** The number of set bits of a word, by 16-bit table lookup. *)

val ctz : int -> int
(** The index of the lowest set bit of a non-zero word (63 for [0]), in
    O(1): the popcount of the bits below it, one table load when it is
    at most 16. *)
