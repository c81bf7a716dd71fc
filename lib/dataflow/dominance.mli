(** Dominators, dominator tree, and dominance frontiers.

    Implements the Cooper-Harvey-Kennedy iterative algorithm ("A Simple,
    Fast Dominance Algorithm"), which is also the engine behind the very
    low [cfa] times the paper reports in Table 2.  Dominance frontiers are
    computed with the Cytron et al. two-level walk. *)

type t = {
  idom : int array;
      (** immediate dominator per block; the entry is its own idom and
          unreachable blocks hold [-1] *)
  children : int list array;  (** dominator-tree children *)
  order : int array;  (** reverse postorder of the reachable blocks *)
  tin : int array;
  tout : int array;
      (** preorder intervals over the dominator tree for O(1)
          {!dominates} *)
}

val compute : Iloc.Cfg.t -> t

val compute_flat : Iloc.Flat.t -> t
(** Same tree computed from the flat arena's CSR edges — identical to
    [compute (Flat.to_routine fl)] without bridging. *)

val postorder : t -> int array
(** [order] reversed: the postorder of the same depth-first search —
    equal to {!Order.postorder_flat} of the arena the tree was computed
    on, and the block order the liveness solvers take. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b] — does [a] dominate [b]?  Reflexive. *)

val frontiers : Iloc.Cfg.t -> t -> Bitset.t array

val frontiers_flat : Iloc.Flat.t -> t -> Bitset.t array
(** {!frontiers} over the flat arena's CSR predecessors; bit-identical
    rows. *)

(** Iterated dominance frontiers with reusable scratch.  DF+ of a set
    of seed blocks is the fixpoint of the frontier map: the set of
    blocks where φ-nodes are required for a variable defined in the
    seeds (before pruning).  φ insertion computes one per variable, and
    at 10⁴-instruction routines per-call bitsets and queue cells used to
    dominate renumbering's allocation. *)
module Idf : sig
  type state

  val create : n:int -> state

  val compute : state -> Bitset.t array -> int list -> Bitset.t
  (** DF+ of the seeds.  The returned set is the state's own buffer —
      valid only until the next [compute] on the same state. *)

  val compute_slice :
    state -> Bitset.t array -> int array -> lo:int -> hi:int -> Bitset.t
  (** [compute] with seeds [seeds.(lo) .. seeds.(hi - 1)] — the flat
      renumbering's definition blocks live in one CSR buffer, sliced per
      register. *)
end
