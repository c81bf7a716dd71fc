(** The allocation context: one record threading everything the
    allocator's phases share — the routine under allocation as a flat
    arena, the machine and mode, the tag and infinite-cost tables, the
    split-pair list, the per-phase {!Stats} — plus {e caches} for the
    derived structures: the block postorder, boundary liveness, the
    live-range numbering and the interference graph.

    The arena ([flat]) is the routine's only form from renumbering to
    the final rewrite: coalescing and spill code replace it, and the
    allocator bridges it to {!Iloc.Cfg.t} once, after coloring.  The
    context holds no structured routine; callers that compare against
    one (the reference coalescer in the tests) keep their own.

    The caches carry the incremental-update invariant of the
    build–coalesce loop: {!graph} performs a from-scratch
    {!Interference.build_flat_boundary} only when no graph is cached,
    and coalescing keeps the cached graph current in place
    ({!Interference.merge}), so a spill round triggers at most one full
    build.  Phases that replace the arena declare what they stale:
    coalescing calls {!invalidate_liveness} (the graph it maintains
    itself; the block order survives, since no phase adds or removes
    blocks); spill-code insertion calls {!invalidate} (every cache).
    Nothing after coalescing reads liveness — spill costs decide which
    ranges cross a block boundary from their own arena sweep — so a
    cold spill round computes {!boundary} once, for its build.

    Rebuilds also recycle storage through one {!Interference.scratch}:
    the previous round's emission buffer (one word per candidate pair)
    is handed back to the next build, so a spill round reuses it
    instead of reallocating.

    All timing and event counting goes through {!time} and {!count},
    which stamp the context's current round. *)

type t = {
  mode : Mode.t;
  machine : Machine.t;
  k : Iloc.Reg.cls -> int;
  tags : Tag.t Iloc.Reg.Tbl.t;
  infinite : unit Iloc.Reg.Tbl.t;
      (** spill temporaries from earlier rounds (never re-spilled) *)
  loops : Dataflow.Loops.t;
      (** the allocation's one loop nest, from the allocator's front
          half: spill costs weight every round by it *)
  stats : Stats.t;
  mutable round : int;
  mutable split_pairs : (Iloc.Reg.t * Iloc.Reg.t) list;
  mutable coalesced : int;  (** copies removed by coalescing, total *)
  mutable order : int array option;
      (** cached {!Dataflow.Order.postorder_flat} of the arena; no phase
          adds or removes blocks or edges, so coalescing keeps it *)
  mutable boundary : Dataflow.Liveness.Boundary.t option;
      (** |U|-compressed boundary liveness cache; see {!boundary} *)
  mutable lr_index : Dataflow.Reg_index.t option;
      (** cached dense numbering of the registers occurring in the
          arena ([Dataflow.Reg_index.of_flat]): the graph build and its
          consumers size every per-node structure by its count *)
  mutable graph : Interference.t option;  (** cache; kept current *)
  mutable copies : int array option;
      (** coalescing's copy worklist as node pairs of the round's graph,
          flattened (entry [2c] is copy [c]'s destination node, [2c+1]
          its source), harvested from the arena once per spill round;
          dropped by {!invalidate} (spill code can introduce new
          copies) *)
  mutable split_nodes : int array option;
      (** [split_pairs] as node pairs of the round's graph, flattened
          the same way and in the same order, [-1] for a register that
          is not a node; made by the round's first coalescing sweep,
          turned back into [split_pairs] after its last, and remade by
          select's partner lists if that dropped it *)
  mutable flat : Iloc.Flat.t;  (** the routine under allocation *)
  mutable mark : int array;  (** see {!fresh_marks} *)
  mutable mark_epoch : int;
  build_scratch : Interference.scratch;
      (** the builds' emission buffer, recycled across rounds *)
  mutable boundary_scratch : Dataflow.Liveness.Boundary.scratch option;
      (** boundary liveness working buffers, recycled across rounds *)
}

val create :
  mode:Mode.t ->
  machine:Machine.t ->
  loops:Dataflow.Loops.t ->
  tags:Tag.t Iloc.Reg.Tbl.t ->
  split_pairs:(Iloc.Reg.t * Iloc.Reg.t) list ->
  stats:Stats.t ->
  Iloc.Flat.t ->
  t
(** A context allocating the given arena: a renumbered, φ-free
    routine with split critical edges. *)

val set_round : t -> int -> unit
val time : t -> Stats.phase -> (unit -> 'a) -> 'a
val count : t -> Stats.counter -> int -> unit

val flat : t -> Iloc.Flat.t

val block_order : t -> int array
(** Cached {!Dataflow.Order.postorder_flat} of the arena: the blocks
    reachable from the entry, the only ones {!boundary} solves over. *)

val boundary : t -> Dataflow.Liveness.Boundary.t
(** Cached global liveness of the arena, as
    {!Dataflow.Liveness.Boundary.compute} — rows |U| bits wide instead
    of |LR|, so dense rows are never materialized.  Recomputed (timed as
    [Liveness], counted as a [Liveness_runs] event, reusing the cached
    block order) when a phase has invalidated it. *)

val graph : t -> Interference.t
(** Cached interference graph; built from scratch (timed and counted as
    a [Full_builds] event, recycling [build_scratch]) only when
    absent. *)

val invalidate_liveness : t -> unit
(** The arena was renamed in a way the graph tracks incrementally but
    liveness does not (coalescing): the boundary rows and the
    live-range numbering drop, and are not recomputed until a phase
    asks for them.  The block order stays valid. *)

val invalidate : t -> unit
(** The arena was replaced by spill code: every cache drops, the copy
    worklist and the split pairs' node form included. *)

val fresh_marks : t -> int -> (int array * int)
(** [fresh_marks t n] returns a scratch array of length ≥ [n] together
    with a fresh epoch value: a slot is "marked" iff it holds the epoch.
    Bumping the epoch invalidates all previous marks at once, so the
    array is never cleared and (after it reaches size) never
    reallocated.  Each call invalidates the marks of every earlier call,
    so at most one user may be live at a time. *)
