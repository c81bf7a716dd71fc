(** The optimistic register allocator with rematerialization — the
    paper's Figure 2 pipeline:

    {v renumber -> build -> coalesce -> spill costs -> simplify -> select
                 ^                                              |
                 +------------------ spill code <---------------+ v}

    {!allocate} drives the whole loop for a chosen {!Mode} and
    {!Machine}.  A spill round is straight-line code: {!build} computes
    the round's liveness, live-range numbering and interference graph
    from the {!Context.t}'s arena, {!coalesce} makes the round's copy
    worklist, and the graph and worklist are passed as arguments from
    phase to phase.  Every allocation — either family, any entry
    point — starts with the same {!front_half}: one encoding of the
    input and one control-flow analysis of it (one dominator tree, one
    loop nest), which every later phase reads.  Every phase of the Chaitin–Briggs family runs on
    the flat arena form ({!Iloc.Flat}), from renumbering to the final
    rewrite to physical registers; the arena is bridged to the
    structured routine once, after coloring.  The structured form is
    the interchange form for the §6 splitting schemes, the input and
    the output.
    Per-phase wall times (Table 2) and event counters land in the
    context's {!Stats.t}.  On success the routine's registers have been
    rewritten to physical registers [r0 .. r(k_int-1)] /
    [f0 .. f(k_float-1)]. *)

exception Allocation_error of string
(** Allocation gave up.  An input refused by {!Iloc.Validate.routine} or
    {!Verify.Check.source_gate} draws ["invalid input routine: "]
    followed by the errors, each naming its block and instruction. *)

exception Verification_error of string list
(** Raised by {!allocate} with [~verify:true] when the independent
    static checker ({!Verify.Check}) rejects the allocation.  Each
    string names the offending output block and instruction. *)

type result = {
  cfg : Iloc.Cfg.t;  (** allocated code, physical registers *)
  mode : Mode.t;
  machine : Machine.t;
  rounds : int;  (** color–spill rounds executed (≥ 1) *)
  spilled_memory : int;  (** live ranges spilled through memory, total *)
  spilled_remat : int;  (** live ranges rematerialized, total *)
  spill_slots : int;  (** frame slots used *)
  n_values : int;  (** SSA values found by renumber *)
  n_live_ranges : int;  (** live ranges after renumber *)
  n_splits : int;
      (** split pairs handed to coloring: renumber's splits plus the
          §6 loop scheme's (0 for the SSA pipeline) *)
  coalesced_copies : int;  (** copies removed by coalescing, total *)
  stats : Stats.t;
}

val build : Context.t -> Interference.t
(** A round's from-scratch start on the context's arena: boundary
    liveness over the context's block order (timed as [Liveness],
    counted as a [Liveness_runs] event), then the live-range numbering
    and {!Interference.build_flat_boundary} (timed together as [Build],
    counted as a [Full_builds] event).  Recycles the context's two
    scratches, so the previous round's graph and liveness must no longer
    be in use. *)

val coalesce : Context.t -> Interference.t -> Coalesce.worklist
(** The incremental coalescing loop on the round's graph: make the
    round's {!Coalesce.worklist}, then iterate {!Coalesce.pass} to a
    fixpoint — unrestricted copies first, then (in splitting modes)
    conservative coalescing of split copies.  Each sweep updates the
    graph in place via {!Interference.merge}, so the [Full_builds]
    counter stays at one per spill round.  When any sweep merged,
    {!Coalesce.rewrite} then renames the context's arena once.  Returns
    the worklist, whose split pairs' node form select's partner lists
    read. *)


val allocate :
  ?verify:bool ->
  ?mode:Mode.t ->
  ?machine:Machine.t ->
  Iloc.Cfg.t ->
  result
(** [mode] defaults to {!Mode.Briggs_remat}, [machine] to
    {!Machine.standard}.  Every path gives up after 64 spill
    rounds.  The input routine must pass
    {!Iloc.Validate.routine} and {!Verify.Check.source_gate}; it is not
    mutated (allocation works on a critical-edge-split copy).  Raises
    {!Allocation_error} when the input is invalid or the round limit is
    hit, and {!Spill_code.Pressure_too_high} when the register set is
    too small for the routine.

    With [~verify:true] (default false), the result is handed to the
    independent translation validator before being returned: any error
    raises {!Verification_error}.  The source gate has refused every
    input it cannot judge, so the allocation is proved or rejected. *)

type front = private {
  stats : Stats.t;
      (** the allocation's statistics, holding round 0's [Cfa] row *)
  flat : Iloc.Flat.t;
      (** the input with critical edges split, encoded once *)
  dom : Dataflow.Dominance.t;  (** {!Dataflow.Dominance.compute_flat} of [flat] *)
  loops : Dataflow.Loops.t;  (** {!Dataflow.Loops.compute_flat} of [flat] *)
}
(** The front half of an allocation: what every later phase of either
    family reads about the routine's control flow.  No phase adds or
    removes a block or an edge, so the tree and the nest stay valid
    from renumbering to the final rewrite. *)

val front_half : Iloc.Cfg.t -> front
(** Validate the input and gate it ({!Verify.Check.source_gate}),
    timed as round 0's [Validate] and raising {!Allocation_error} if
    either refuses it; then, timed as round 0's [Cfa], split its
    critical edges, encode it ({!Iloc.Flat.of_routine}) and compute its
    dominator tree and loop nest on that arena.  {!allocate},
    {!allocate_snapshot} and {!allocate_incremental} all start here;
    the input is not mutated. *)

val context : mode:Mode.t -> machine:Machine.t -> front -> Context.t
(** The Chaitin–Briggs family's next steps on a front half, as
    {!allocate} takes them: renumber with the front half's dominator
    tree (timed as [Renum]), run the mode's §6 loop scheme with its loop
    nest and block order (timed as [Splitting]), and create the context
    the spill rounds run in, before any round, holding the dominator
    tree's postorder ({!Dataflow.Dominance.postorder}) as its block
    order.  For tools and tests that drive the rounds themselves, with
    {!build} and {!coalesce}. *)

type snapshot = private {
  snap_mode : Mode.t;
  snap_machine : Machine.t;
  snap_flat : Iloc.Flat.t;
      (** the pristine renumbered arena, before any coalescing *)
  snap_split_pairs : (Iloc.Reg.t * Iloc.Reg.t) list;
  snap_graph : Interference.t;  (** the graph built from [snap_flat] *)
}
(** Everything a small edit of a routine leaves valid: the start of an
    allocation's first round — the renumbered arena and the
    interference graph, as built, before the first coalescing sweep.
    The graph sees only def/use registers, copies and terminator
    targets — never immediate payloads or source-operand order — so an
    edit preserving that skeleton reuses it.  Liveness is not kept: a
    reused round 1 starts from the graph, and every later round
    recomputes liveness from its own arena.  A snapshot is immutable:
    concurrent {!allocate_incremental} calls may share one (each takes a
    private graph copy). *)

val allocate_snapshot :
  ?mode:Mode.t -> ?machine:Machine.t -> Iloc.Cfg.t -> result * snapshot option
(** {!allocate} with its defaults, also capturing the snapshot for later
    {!allocate_incremental} calls.  The snapshot is taken from round
    1's own graph — nothing is computed twice — at the cost of a graph
    copy (timed as round 1's [Build]); the result is byte-identical to
    {!allocate}'s, counters included.  No snapshot is taken for modes
    with a §6 loop-splitting scheme (splitting rewrites the routine
    after renumber) or for the SSA pipeline (which builds no
    interference graph): their edits always allocate cold. *)

type path =
  | Incremental  (** the skeleton matched: round 1 reused the snapshot *)
  | Cold  (** the skeleton differed: the edit was allocated cold *)

val allocate_incremental :
  snapshot -> Iloc.Cfg.t -> path * result * snapshot
(** Allocate an edited variant of the snapshotted routine with the
    snapshot's mode and machine, and {!allocate}'s other defaults.  The
    edit runs the whole {!front_half}, loop nest included, and is always
    renumbered (tag unioning can change under payload edits).  If its live-range skeleton matches the snapshot's,
    the first round skips the from-scratch liveness and graph build and
    starts from a copy of the snapshot's graph (timed as [Build]): it
    performs no [Full_builds] and no [Liveness_runs] (observable in
    [result.stats]: [Full_builds] = rounds − 1 instead of rounds), and
    the returned snapshot describes the edited routine, sharing the
    base's graph.
    Otherwise the edit continues cold from the arena just renumbered —
    renumbering still runs once — and returns the fresh snapshot its
    first round captured.  Either way the allocation is byte-identical
    to a cold {!allocate} of the same routine. *)

val check : result -> (unit, string list) Result.t
(** Post-allocation sanity check: the code is valid ILOC and every
    register id is below the machine's [k] for its class
    ({!Verify.Check.over_k}). *)
