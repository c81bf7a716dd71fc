(** Constant-time worklist structures for the coloring core.

    Two shapes, both free of per-operation allocation (flat arrays grown
    by doubling), both designed around {e lazy deletion}: entries are
    never removed in place; the consumer revalidates an entry when it
    surfaces and re-files or discards stale ones.  This is what makes
    O(1) degree decrements possible — a decrement touches only the
    degree array, never the queue. *)

module Heap : sig
  (** Min-heap of spill candidates keyed by [(metric, degree, node)]:
      metric ascending, degree {e descending}, node index ascending —
      the exact preference order of Chaitin's cost/degree candidate
      scan, including its tie-breaks.

      Intended use is a {e lazy snapshot}: push every node once with its
      current metric and degree; degree decrements do not touch the
      heap.  Because spill costs are fixed and degrees only fall, a
      node's true key only grows, so every stored entry is a lexicographic
      lower bound of its node's current key.  On [pop], an entry whose
      recorded degree is stale is re-pushed with the current key; the
      first up-to-date entry popped is exactly the minimum the naive
      O(n) rescan would have chosen. *)

  type t

  val create : ?cap:int -> unit -> t
  val length : t -> int
  val is_empty : t -> bool
  val clear : t -> unit
  val push : t -> metric:float -> deg:int -> int -> unit

  val pop : t -> (float * int * int) option
  (** [(metric, deg, node)] as stored at push time — the caller compares
      [deg] against the node's current degree to detect staleness. *)
end

module Buckets : sig
  (** Worklist bucketed by a small integer key (a degree, a postorder
      position).  [pop_min] returns an entry of the smallest nonempty
      bucket in O(1) amortized: a cursor sweeps upward over buckets and
      is rewound only when a push files below it.  Order {e within} a
      bucket is unspecified (LIFO today); duplicate suppression and
      staleness are the caller's concern (e.g. a [queued] bit array).

      Keys outside [0, keys) are clamped into range, so a caller with an
      open-ended key (a degree that can exceed every interesting
      threshold) can size the structure at the largest distinguishable
      key. *)

  type t

  val create : keys:int -> t
  val length : t -> int
  val push : t -> key:int -> int -> unit
  val pop_min : t -> int option
end
