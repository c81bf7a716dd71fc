(** Open-addressing set of non-negative ints.

    Backs the sparse interference edge set: at the million-instruction
    tier the triangular adjacency bitmatrix over live ranges would still
    be quadratic in [|LR|], while the edge count stays near-linear, so
    edges above a node-count threshold live here instead.  Linear
    probing from a Fibonacci-mixed home slot, tombstone deletion, and a
    fixed (non-randomized) hash keep membership O(1) amortized and every
    operation deterministic. *)

type t

val create : ?cap:int -> unit -> t
(** [cap] is a capacity hint; the table grows as needed. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val cardinal : t -> int

val capacity : t -> int
(** Current slot-array size (a power of two).  Together with
    {!tombstones} this makes the rehash policy observable: [add] keeps
    [cardinal + tombstones] under 3/4 of capacity, growing only while
    at least half the slots hold live keys and otherwise purging
    tombstones in place — so add/remove churn at a steady cardinality
    rehashes periodically instead of decaying probe lengths, and
    capacity stays bounded by the high-water cardinality, not by the
    operation count. *)

val tombstones : t -> int
(** Deleted slots awaiting the next rehash. *)

val clear : t -> unit

val iter : (int -> unit) -> t -> unit
(** Iteration order is the internal table order — deterministic for a
    given insertion/removal history, but not sorted. *)
