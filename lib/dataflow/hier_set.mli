(** A wide, usually-sparse mutable int set with occupancy summaries.

    Same membership semantics as {!Bitset} over [0 .. n-1], but two
    summary levels (one bit per 32-bit group, recursively) make
    {!iter} and {!clear} cost O(members + occupied words) instead of
    O(capacity/word): the structure for a live-now set over hundreds of
    thousands of live ranges that holds a few dozen members at a time.

    All element operations are {e unchecked} — indices must lie within
    the creation capacity — and ascending-order iteration matches
    {!Bitset.iter}. *)

type t

val create : int -> t
(** [create n] is the empty set over [0 .. n-1]. *)

val add : t -> int -> unit
val remove : t -> int -> unit

val iter : (int -> unit) -> t -> unit
(** Ascending element order. *)

val clear : t -> unit
(** O(occupied words), via the summaries. *)
