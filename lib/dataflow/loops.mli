(** Natural loops and loop-nesting depth.

    Back edges are edges whose target dominates their source; the natural
    loop of a back edge [t -> h] is [h] plus every block that reaches [t]
    without passing through [h].  Loops sharing a header are merged.  The
    paper's spill-cost metric weights each memory access by [10^d] where
    [d] is the enclosing instruction's loop nesting depth (§2). *)

type loop = {
  header : int;
  body : Bitset.t;  (** includes the header *)
  parent : int option;  (** index into [loops] of the innermost enclosing loop *)
  depth : int;  (** 1 for outermost loops *)
}

type t = {
  loops : loop array;
  depth : int array;  (** nesting depth per block; 0 outside all loops *)
  innermost : int array;  (** innermost loop index per block, or -1 *)
}

val compute : Iloc.Cfg.t -> Dominance.t -> t

val compute_flat : Iloc.Flat.t -> Dominance.t -> t
(** Same loop nest computed from the flat arena's CSR edges — identical
    to [compute (Flat.to_routine fl)], loop order included, without
    bridging.  The allocator's front half runs this one. *)

val weight : t -> int -> float
(** [weight t b] is [10 ^ depth(b)], the spill-cost multiplier for
    instructions in block [b]. *)
