(** The allocation context: what the Chaitin–Briggs family's phases
    share across spill rounds — the routine under allocation as a flat
    arena, the machine and mode, the tag and infinite-cost tables, the
    front half's loop nest and block order, the split-pair list, the
    per-phase {!Stats} — and nothing a round derives from the arena.

    A round is straight-line code in {!Allocator}: liveness, the
    live-range numbering and the interference graph are computed from
    the arena ({!Allocator.build}), the copy worklist and the split
    pairs' node form are made from that graph ({!Coalesce.worklist}),
    and the graph and worklist are handed as arguments to coalescing,
    spill costs, simplify and select.  None of them is stored here, so
    no phase declares what it stales: a round's derived structures die
    with the round, and the next round computes its own from the arena
    spill code left.

    The arena ([flat]) is the routine's only form from renumbering to
    the final rewrite: coalescing and spill code replace it, and the
    allocator bridges it to {!Iloc.Cfg.t} once, after coloring.  The
    context holds no structured routine; callers that compare against
    one (the reference coalescer in the tests) keep their own.

    What outlives a round is here for a reason: the tag and
    infinite-cost tables, [split_pairs] and [coalesced] accumulate
    across rounds; [loops] and [order] describe every round's arena,
    since no phase adds or removes a block or an edge; the mark array
    and the two scratches recycle storage — each round's build writes
    into the previous round's emission buffer and its liveness into the
    previous round's row slabs, whose contents are dead by then.

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
  order : int array;
      (** the allocation's one block postorder, the front half's
          dominator-tree search reversed ({!Dataflow.Dominance.postorder}):
          every round's liveness solves over it *)
  stats : Stats.t;
  mutable round : int;
  mutable split_pairs : (Iloc.Reg.t * Iloc.Reg.t) list;
  mutable coalesced : int;  (** copies removed by coalescing, total *)
  mutable flat : Iloc.Flat.t;  (** the routine under allocation *)
  mutable mark : int array;  (** see {!fresh_marks} *)
  mutable mark_epoch : int;
  build_scratch : Interference.scratch;
      (** the builds' emission buffer, recycled across rounds *)
  boundary_scratch : Dataflow.Liveness.Boundary.scratch;
      (** boundary liveness working buffers, recycled across rounds *)
}

val create :
  mode:Mode.t ->
  machine:Machine.t ->
  loops:Dataflow.Loops.t ->
  order:int array ->
  tags:Tag.t Iloc.Reg.Tbl.t ->
  split_pairs:(Iloc.Reg.t * Iloc.Reg.t) list ->
  stats:Stats.t ->
  Iloc.Flat.t ->
  t
(** A context allocating the given arena: a renumbered, φ-free
    routine with split critical edges, whose loop nest is [loops] and
    whose block postorder is [order]. *)

val set_round : t -> int -> unit
val time : t -> Stats.phase -> (unit -> 'a) -> 'a
val count : t -> Stats.counter -> int -> unit

val flat : t -> Iloc.Flat.t

val fresh_marks : t -> int -> (int array * int)
(** [fresh_marks t n] returns a scratch array of length ≥ [n] together
    with a fresh epoch value: a slot is "marked" iff it holds the epoch.
    Bumping the epoch invalidates all previous marks at once, so the
    array is never cleared and (after it reaches size) never
    reallocated.  Each call invalidates the marks of every earlier call,
    so at most one user may be live at a time. *)
