(** Global liveness analysis.

    Backward data-flow over basic blocks using upward-exposed uses and
    kill sets:

    {v live_out(b) = U_{s in succ(b)} live_in(s)
       live_in(b)  = ue(b) U (live_out(b) \ kill(b)) v}

    Solved with a worklist seeded in postorder: after the seed sweep a
    block is revisited only when [live_in] of one of its successors
    changed, so sparse late growth (a long live range discovered around
    a loop) costs visits along that range's blocks instead of full
    sweeps over the routine.

    Registers are mapped to a dense index space so sets are bitsets.  The
    routine must not be in SSA form (the allocator needs liveness before
    φ-insertion, to prune dead φ-nodes, and after renumber, to build the
    interference graph — φ-nodes are absent both times). *)

type t = {
  regs : Reg_index.t;
  live_in : Bitset.t array;
  live_out : Bitset.t array;
  ue : Bitset.t array;  (** upward-exposed uses per block *)
  kill : Bitset.t array;  (** registers defined per block *)
}

val compute : ?order:int array -> Iloc.Cfg.t -> t
(** [order], when given, must be the routine's current
    {!Order.postorder}; callers that hold one (the allocation context
    caches it across coalescing rounds) pass it to skip the DFS. *)

val compute_ssa : ?order:int array -> Iloc.Cfg.t -> t
(** φ-aware liveness over an SSA-form routine, the decoupled pipeline's
    pressure substrate: a φ-node's arguments are used at the end of the
    matching predecessor (they join that predecessor's [live_out]) and
    its destination is defined at the block's entry (it joins [kill] and
    is in no [live_in]).  Non-SSA routines are accepted too, where the
    equations degenerate to {!compute}'s. *)

val max_live_ssa : Iloc.Cfg.t -> t -> int array * int array
(** [max_live_ssa cfg t] — per-block MaxLive of the integer resp. float
    class from the boundary rows of [compute_ssa cfg]: the peak number
    of simultaneously live registers at any point of the block,
    including the entry point where live-in values and every φ
    destination coexist, and the block-end point where successor φ-args
    are still live.  On SSA form this is the exact spill criterion of
    "Spill Everywhere under SSA": the chordal interference graph is
    colorable with [max MaxLive] colors per class. *)

val live_in : t -> int -> Iloc.Reg.t list
val live_out : t -> int -> Iloc.Reg.t list
val live_in_mem : t -> int -> Iloc.Reg.t -> bool
val live_out_mem : t -> int -> Iloc.Reg.t -> bool

(** Boundary liveness compressed to the upward-exposed universe [U].

    Every register a [live_in]/[live_out] set can mention is
    upward-exposed in some block, so rows only [|U|] bits wide lose
    nothing; for generated million-instruction routines [|U|] is three
    orders of magnitude below the register count, which is what makes
    boundary liveness at that scale feasible at all.  The sets equal
    {!compute}'s of the bridged routine, reindexed through [uindex]. *)
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

  val compute : ?order:int array -> ?scratch:scratch -> Iloc.Flat.t -> t

  val live_in : t -> int -> Iloc.Reg.t list
  (** Block [b]'s live-in registers in ascending {!Iloc.Reg.compare}
      order — the list the dense {!Liveness.live_in} returns. *)

  val live_in_mem : t -> int -> Iloc.Reg.t -> bool
  val live_out_mem : t -> int -> Iloc.Reg.t -> bool
  (** Membership against the boundary rows; a register outside [U] is in
      no boundary set, so the answers equal the dense computation's. *)
end
