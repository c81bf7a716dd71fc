(** Global liveness analysis over the flat arena.

    Backward data-flow over basic blocks using upward-exposed uses and
    kill sets:

    {v live_out(b) = U_{s in succ(b)} live_in(s)
       live_in(b)  = ue(b) U (live_out(b) \ kill(b)) v}

    Solved with a worklist seeded in postorder: after the seed sweep a
    block is revisited only when [live_in] of one of its successors
    changed, so sparse late growth (a long live range discovered around
    a loop) costs visits along that range's blocks instead of full
    sweeps over the routine.

    One dense solver serves every client: dead-code elimination and the
    local allocator on φ-free arenas, and the SSA family on its SSA
    arena with the φs kept beside it.  Registers are mapped to a dense
    index space so sets are bitsets. *)

type t = {
  regs : Reg_index.t;
  pmap : int array;
      (** [pmap.(Reg.hash r)] is [r]'s index in [regs]; any other packed
          id up to the arena's largest maps to [-1].  Built by the
          presence sweep that numbers [regs], so no caller needs
          {!Reg_index.packed_map} *)
  live_in : Bitset.t array;
  live_out : Bitset.t array;
  ue : Bitset.t array;  (** upward-exposed uses per block *)
  kill : Bitset.t array;  (** registers defined per block *)
}

val compute :
  Iloc.Flat.t -> order:int array -> phis:Iloc.Flat.phi array array -> t
(** [compute fl ~order ~phis] — [order] is the arena's postorder (the
    blocks the solver visits: {!Order.postorder_flat}, or equally the
    reversed [order] of its {!Dominance.t}), [phis.(b)] are block [b]'s
    φ-nodes, or [phis] is [[||]] for a φ-free arena.  Blocks outside
    [order] keep empty sets.  A φ-node's arguments are used at the
    end of the matching predecessor (they join that predecessor's
    [live_out]) and its destination is defined at the block's entry (it
    joins [kill] and is in no [live_in]).  [regs] numbers every register
    of the arena and the φs in ascending {!Iloc.Reg.compare} order. *)

val live_out_mem : t -> int -> Iloc.Reg.t -> bool

(** Boundary liveness compressed to the upward-exposed universe [U].

    Every register a [live_in]/[live_out] set can mention is
    upward-exposed in some block, so rows only [|U|] bits wide lose
    nothing; for generated million-instruction routines [|U|] is three
    orders of magnitude below the register count, which is what makes
    boundary liveness at that scale feasible at all.  The sets equal
    {!compute}'s of the same arena, reindexed through [uindex]. *)
module Boundary : sig
  type nonrec t = {
    uindex : Reg_index.t;
    live_in : Bitset.t array;
    live_out : Bitset.t array;
    ue : Bitset.t array;
    kill : Bitset.t array;
  }

  type scratch
  (** Cross-computation working buffers (packed-id-width arrays and the
      previous result's row slabs).  A context that recomputes the
      boundary every spill round threads one [scratch] through all
      calls; the previous result's rows must no longer be in use. *)

  val scratch : unit -> scratch

  val compute : order:int array -> ?scratch:scratch -> Iloc.Flat.t -> t
  (** [order] as for the dense [compute] above. *)

  val live_in : t -> int -> Iloc.Reg.t list
  (** Block [b]'s live-in registers in ascending {!Iloc.Reg.compare}
      order. *)

  val live_in_mem : t -> int -> Iloc.Reg.t -> bool
  val live_out_mem : t -> int -> Iloc.Reg.t -> bool
  (** Membership against the boundary rows; a register outside [U] is in
      no boundary set, so the answers equal the dense computation's. *)
end
