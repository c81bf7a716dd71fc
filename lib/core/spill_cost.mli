(** Spill-cost estimation (§2, refined by §3.2).

    The classic Chaitin estimate: the cost of the memory operations that
    spilling would insert, each weighted by [10^d] for loop-nesting depth
    [d].  The rematerialization tags refine it — an [Inst]-tagged live
    range needs no stores at definitions and only a one-cycle
    rematerialization instruction before each use, so its estimate is
    correspondingly smaller and simplify prefers to spill it first ("spill
    costs uses the tags to compute more accurate spill costs", §3.2).

    Live ranges created by earlier spill rounds are marked infinite so the
    iterative color–spill process terminates. *)

val compute :
  Iloc.Flat.t ->
  Dataflow.Loops.t ->
  Interference.t ->
  order:int array ->
  tags:Tag.t Iloc.Reg.Tbl.t ->
  infinite:unit Iloc.Reg.Tbl.t ->
  float array
(** Cost per interference-graph node, read off the arena encoding of the
    routine the graph describes: one sweep in block then slot order,
    with node indices through {!Dataflow.Reg_index.packed_map} and the
    tags resolved once per node.  Two kinds of live range are marked
    [infinity]: spill temporaries from earlier rounds (the [infinite]
    table), and {e tiny} ranges — confined to one block with all
    occurrences within two instructions of each other — whose spilling
    would insert a load or store adjacent to every occurrence without
    shortening the range (Chaitin's classic futile-spill guard).

    A range is confined to its block when it occurs in no other block
    and is not live into it.  The sweep decides both, with no liveness
    run: the range is live into its one block exactly when its first
    occurrence there is a use and the block is in [order], the arena's
    block postorder — boundary liveness solves over those blocks only,
    so an unreachable block's live-in set is empty. *)

val phase : Context.t -> Interference.t -> float array
(** {!compute} on the context's arena and block order and the round's
    graph, timed as [Costs].  The arena is the coalesced routine:
    coalescing renamed it before the call.  The block order is the
    front half's: coalescing and spill code add and remove no blocks or
    edges. *)

val load_store_cycles : int
(** Cycles charged per inserted load or store (2, matching §5.1). *)

val remat_cycles : int
(** Cycles charged per rematerialization instruction (1). *)
