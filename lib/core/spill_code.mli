(** Spill-code insertion, tag-directed (§3.2): the one spill rewrite of
    both allocator families, on the flat arena.

    Every live range select left uncolored (or, in the SSA family, every
    value the MaxLive sweep chose) is converted into a collection of
    tiny live ranges:

    - [Inst op] tag: the value is {e rematerialized} — a fresh temporary
      is defined by [op] immediately before each use, and every original
      definition of the live range is deleted (never-killed values are
      side-effect free and recomputable, so their defining instructions
      and connecting copies are dead once no use reads the register);
    - [Bottom] tag: the classic heavyweight spill — a frame slot is
      assigned, every definition is followed by a [spill] of a fresh
      temporary and every use is preceded by a [reload].

    Fresh temporaries are registered in the tag table (reload temporaries
    as [Bottom], rematerialization temporaries keep the [Inst] tag) and
    marked infinite-cost so later rounds never try to spill them — this is
    what makes the iterated color–spill process terminate. *)

exception Pressure_too_high of string
(** Raised when a previous round's spill temporary is itself selected for
    spilling: register pressure exceeds what the target's [k] can express
    (only reachable with pathologically small register sets). *)

val fault_reload_skew : int ref
(** Test-only fault injection: every [Reload] inserted at an instruction
    site reads frame slot [slot + !fault_reload_skew] instead of [slot].  Default [0] (sound).
    Setting it to [1] plants a spill-slot off-by-one miscompile that the
    fuzz oracle must catch and the reducer must minimize — see
    [test/test_fuzz.ml].  Never set outside tests; restore to [0]
    afterwards. *)

val fault_remat_bias : int ref
(** Second test-only fault: every rematerialization sequence emitted at
    an instruction site for an integer immediate recomputes [Ldi (n + !fault_remat_bias)] instead
    of [Ldi n].  Default [0] (sound).  Because the bias is applied only to
    the {e emitted} sequence — the tag table keeps the true expression —
    it models an allocator whose spill-code emitter drifts from its own
    analysis: exactly the class of bug the static verifier catches by
    re-deriving tags itself ([Verify.Check]), and which dynamic testing
    misses whenever the biased constant does not change the observable
    outcome.  Never set outside tests; restore to [0] afterwards. *)

type stats = {
  remat_lrs : int;  (** live ranges spilled by rematerialization *)
  memory_lrs : int;  (** live ranges spilled through memory *)
  new_slots : int;
}

val insert_flat :
  Iloc.Flat.t ->
  phis:Iloc.Flat.phi array array ->
  tags:Tag.t Iloc.Reg.Tbl.t ->
  infinite:unit Iloc.Reg.Tbl.t ->
  spilled:Iloc.Reg.t list ->
  slots:int Iloc.Reg.Tbl.t ->
  slot_counter:int ref ->
  stats * Iloc.Flat.t
(** [insert_flat fl ~phis ~tags ~infinite ~spilled ~slots ~slot_counter]
    rewrites every site of the [spilled] values and returns the spliced
    arena.  Untouched records are block-copied, so a round that spills
    few ranges in a large routine allocates almost nothing.  Fresh
    temporaries continue from the arena's supply watermark and are
    registered in [tags]/[infinite].  [slots] is the caller's
    value-to-frame-slot table: a value already in it keeps its slot,
    and every new slot (numbered from [slot_counter]) is added to it.

    [phis] are the φs beside an SSA arena ([[||]] for a φ-free one),
    rewritten in place by the SSA family's spill-everywhere rules: a
    spilled φ destination disappears — a recomputable one is recomputed
    at its uses, a memory one becomes a {e memory φ}, each predecessor
    storing the edge's argument into the destination's slot, ordered
    like a parallel copy over slots so a cyclic permutation on a back
    edge cannot read an already-overwritten slot; a surviving φ's
    spilled arguments are reloaded or recomputed at the end of the
    predecessor.  That φ-edge code lands before the predecessor's
    terminator in the same splice, and its temporaries number before
    the instruction sites'.  The fault-injection hooks above apply to
    instruction sites only. *)
