(** Disjoint-set union-find with union by rank and path compression.

    The allocator unions SSA values into live ranges (renumber step 4 of
    §4.1) and keeps unioning through coalescing, exactly as the paper
    prescribes ("the disjoint-set structure is maintained while building
    the interference graph and coalescing"). *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets named [0 .. n-1]. *)

val find : t -> int -> int
(** Canonical representative; stable until the next union involving the
    class. *)

val union : t -> int -> int -> int
(** Merge the two classes and return the representative of the result. *)

val same : t -> int -> int -> bool
val n_classes : t -> int
