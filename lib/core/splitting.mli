(** Loop-based live-range splitting — the §6 extensions.

    "A natural extension to the scheme described in Section 3 is to split
    at all φ-nodes ... This suggests adding extra splits at the top of the
    loop."  The paper experimented with several schemes; this module
    implements the loop-boundary family on the renumbered routine:

    - [`All_loops]: split every live range that is live into a loop's
      header around that loop, for every loop (scheme 1);
    - [`Outer_loops]: only around outermost loops (scheme 2);
    - [`Unreferenced]: split a live range only around the outermost loop
      in which it is neither used nor defined (scheme 3) — the case the
      paper singles out with the value p₀ of Figure 3, a value that a
      φ-driven splitter can never isolate because no φ-node exists for
      it.

    For each chosen (live range, loop) pair the pass renames the live
    range inside the loop to a fresh name connected by split copies: one
    on every loop-entry edge, and — when the loop redefines the value and
    it is live afterwards — one on every exit edge.  The new names carry
    the original tag and are recorded as split partners, so conservative
    coalescing and biased coloring treat them exactly like renumber's own
    splits; in regions of low pressure everything coalesces back and the
    routine is unchanged.

    Requires critical edges to have been split.  Mutates the routine and
    the tag table in place and returns the new split pairs.  The loop
    nest and the block order are the caller's: renumbering and splitting
    add no blocks and no edges, so the allocation's one loop nest and
    dominator-tree order, computed by its front half before renumbering,
    describe the routine split here. *)

type scheme = [ `All_loops | `Outer_loops | `Unreferenced ]

val run :
  scheme ->
  Iloc.Cfg.t ->
  tags:Tag.t Iloc.Reg.Tbl.t ->
  loops:Dataflow.Loops.t ->
  order:int array ->
  (Iloc.Reg.t * Iloc.Reg.t) list
(** Returns the split pairs inserted (to be appended to renumber's).
    [loops] is the routine's loop nest; its loop order decides the
    order splits are made in.  [order] is the routine's block postorder,
    which every loop's liveness recomputation solves over. *)

val phase :
  Mode.t ->
  Stats.t ->
  loops:Dataflow.Loops.t ->
  order:int array ->
  tags:Tag.t Iloc.Reg.Tbl.t ->
  split_pairs:(Iloc.Reg.t * Iloc.Reg.t) list ->
  Iloc.Flat.t ->
  (Iloc.Reg.t * Iloc.Reg.t) list * Iloc.Flat.t
(** Before the {!Context} exists: {!run} the mode's loop scheme, if
    any, on the renumbered arena and return [split_pairs] with the new
    pairs appended and the split routine's arena, timed as [Splitting]
    in round 0.  Only a mode with a loop scheme bridges the arena to a
    {!Iloc.Cfg.t} (and back); every other mode returns it untouched. *)
