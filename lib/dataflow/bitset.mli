(** Dense mutable bitsets over [0 .. n-1], word-parallel.

    Storage is a byte buffer padded to whole 64-bit words; the bulk
    operations ([union_into]/[inter_into]/[diff_into], [equal],
    [is_empty], [cardinal]) run a machine word at a time, and
    [iter]/[fold] skip all-zero words before scanning set bits with
    trailing-zero arithmetic.  Used for block-level live sets and for the
    upper-triangular interference bit matrix.

    The safe single-bit operations are bounds-checked; the [unsafe_*]
    variants are not (see their contract below).  The binops require
    equal capacities. *)

type t

val create : int -> t
(** All bits clear. *)

val slab : ?buf:t array -> rows:int -> capacity:int -> unit -> t array
(** [slab ~rows ~capacity ()] is [rows] independent cleared bitsets of
    the given capacity packed back-to-back in {e one} shared byte buffer.
    Semantically each row behaves exactly like a [create]d set; the point
    is allocation: a liveness problem with thousands of rows costs one
    large major-heap block instead of thousands of minor-heap ones.
    [buf], when given, is a previous [slab] result whose rows {e must no
    longer be in use}: if its backing buffer is large enough it is
    cleared and recycled instead of allocating fresh. *)

val capacity : t -> int

val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool

val unsafe_add : t -> int -> unit
(** No bounds check: the caller must guarantee [0 <= i < capacity t].
    The allocator's hot paths use these with indices produced by
    {!Reg_index}, which are in range by construction; everything else
    should use the checked operations. *)

val unsafe_remove : t -> int -> unit
(** Same contract as {!unsafe_add}. *)

val unsafe_mem : t -> int -> bool
(** Same contract as {!unsafe_add}. *)

val is_empty : t -> bool

val cardinal : t -> int
(** Word-at-a-time popcount. *)

val clear : t -> unit
val copy : t -> t

val assign : dst:t -> t -> unit
(** [assign ~dst src] sets [dst := src] without allocating (a word
    blit).  The capacities must match. *)

val equal : t -> t -> bool

val union_into : dst:t -> t -> bool
(** [union_into ~dst src] sets [dst := dst ∪ src]; returns [true] if
    [dst] changed. *)

val inter_into : dst:t -> t -> bool
val diff_into : dst:t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Ascending index order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val of_list : int -> int list -> t
val pp : Format.formatter -> t -> unit
