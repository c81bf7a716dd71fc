(** Growable unboxed integer vectors (amortized-O(1) push, swap-remove).

    The interference graph's adjacency lists live in these instead of
    [int list]: contiguous storage, no per-element allocation, and
    removal is a scan plus a swap with the last element rather than a
    rebuild of the list.  Removal therefore does {e not} preserve
    insertion order. *)

type t

val create : ?cap:int -> unit -> t

val of_prefix : int array -> int -> t
(** [of_prefix data len] adopts [data] as the vector's storage: its
    first [len] elements are the contents, the rest spare capacity.
    [data] is not copied, so the caller must not touch it afterwards.
    Raises [Invalid_argument] unless [0 <= len <= Array.length data]. *)

val length : t -> int

val get : t -> int -> int
(** Bounds-checked. *)

val push : t -> int -> unit

val mem : t -> int -> bool
(** Linear scan, O(length). *)

val remove_value : t -> int -> unit
(** Remove the first occurrence of the value, if present, by swapping
    the last element into its slot (order-destroying, O(length)). *)

val pop : t -> int
(** Remove and return the last element; raises [Invalid_argument] when
    empty. *)

val clear : t -> unit

val copy : t -> t
(** Independent vector with the same elements; trims slack capacity. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val exists : (int -> bool) -> t -> bool
(** In vector order, stopping at the first element [f] accepts. *)

val to_list : t -> int list
