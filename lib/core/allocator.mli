(** The optimistic register allocator with rematerialization — the
    paper's Figure 2 pipeline:

    {v renumber -> build -> coalesce -> spill costs -> simplify -> select
                 ^                                              |
                 +------------------ spill code <---------------+ v}

    {!allocate} drives the whole loop for a chosen {!Mode} and
    {!Machine}, threading a {!Context.t} through the phases so each one
    reads the cached liveness and interference graph instead of
    recomputing them.  Every phase of the Chaitin–Briggs family runs on
    the flat arena form ({!Iloc.Flat}), from renumbering to the final
    rewrite to physical registers; the arena is bridged to the
    structured routine once, after coloring.  The structured form is
    the interchange form for splitting, the input and the output.
    Per-phase wall times (Table 2) and event counters land in the
    context's {!Stats.t}.  On success the routine's registers have been
    rewritten to physical registers [r0 .. r(k_int-1)] /
    [f0 .. f(k_float-1)]. *)

exception Allocation_error of string

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

val build_coalesce : Context.t -> unit
(** The incremental build–coalesce loop.  Forces one from-scratch graph
    build through the context cache, then iterates {!Coalesce.pass} to a
    fixpoint — unrestricted copies first, then (in splitting modes)
    conservative coalescing of split copies.  Each sweep updates the
    cached graph in place via {!Interference.merge}; the [Full_builds]
    counter therefore stays at one per spill round.  When any sweep
    merged, {!Coalesce.rewrite} then renames the context's arena once. *)

val rewrite_physical :
  Iloc.Flat.t -> Interference.t -> int option array -> Iloc.Flat.t
(** The arena with every register rewritten to its node's assigned
    physical register and the copies this makes into identities deleted
    (split or copy instructions whose source and destination received
    the same color — the deletions biased coloring works for): the
    {!Coalesce.rename} pass, given colors. *)

val allocate :
  ?verify:bool ->
  ?mode:Mode.t ->
  ?machine:Machine.t ->
  ?max_rounds:int ->
  Iloc.Cfg.t ->
  result
(** [mode] defaults to {!Mode.Briggs_remat}, [machine] to
    {!Machine.standard}, [max_rounds] to 64.  The input routine must pass
    {!Iloc.Validate.routine}; it is not mutated (allocation works on a
    critical-edge-split copy).  Raises {!Allocation_error} when the input
    is invalid or the round limit is hit, and
    {!Spill_code.Pressure_too_high} when the register set is too small for
    the routine.

    With [~verify:true] (default false), the result is handed to the
    independent translation validator before being returned: a
    rejection raises {!Verification_error}.  Pairs the checker declines
    to judge (kind [Unsupported] — e.g. an input that already contains
    spill code) pass silently. *)

type snapshot = private {
  snap_mode : Mode.t;
  snap_machine : Machine.t;
  snap_loops : Dataflow.Loops.t;
  snap_flat : Iloc.Flat.t;
      (** the pristine renumbered arena, before any coalescing *)
  snap_split_pairs : (Iloc.Reg.t * Iloc.Reg.t) list;
  snap_boundary : Dataflow.Liveness.Boundary.t;
      (** boundary liveness of [snap_flat]; the rows are the snapshot's
          own, never recycled by a later round *)
  snap_graph : Interference.t;  (** the graph built from [snap_flat] *)
}
(** Everything a small edit of a routine leaves valid: the front half
    of an allocation's first round — the renumbered arena, boundary
    liveness ({!Dataflow.Liveness.Boundary}) and the interference
    graph, as built, before the first coalescing sweep.  Liveness and
    the graph see only def/use registers, copies and terminator
    targets — never immediate payloads or source-operand order — so an
    edit preserving that skeleton reuses both.  A snapshot is immutable:
    concurrent {!allocate_incremental} calls may share one (each takes a
    private graph copy and shares the liveness rows read-only). *)

val allocate_snapshot :
  ?mode:Mode.t -> ?machine:Machine.t -> Iloc.Cfg.t -> result * snapshot option
(** {!allocate} with its defaults, also capturing the snapshot for later
    {!allocate_incremental} calls.  The snapshot is taken from round
    1's own context — the front half runs once — at the cost of a graph
    copy; the result is byte-identical to {!allocate}'s, counters
    included.  No snapshot is taken for modes with a §6 loop-splitting
    scheme (splitting rewrites the routine after renumber) or for the
    SSA pipeline (which builds no interference graph): their edits
    always allocate cold. *)

type path =
  | Incremental  (** the skeleton matched: round 1 reused the snapshot *)
  | Cold  (** the skeleton differed: the edit was allocated cold *)

val allocate_incremental :
  ?verify:bool ->
  ?max_rounds:int ->
  snapshot ->
  Iloc.Cfg.t ->
  path * result * snapshot
(** Allocate an edited variant of the snapshotted routine with the
    snapshot's mode and machine.  The edited routine is always
    renumbered (tag unioning can change under payload edits).  If its
    live-range skeleton matches the snapshot's, the first round skips
    the from-scratch liveness and graph build by priming the context
    from the snapshot: it performs no [Full_builds] and no
    [Liveness_runs] (observable in [result.stats]: [Full_builds] =
    rounds − 1 instead of rounds), and the returned snapshot describes
    the edited routine, sharing the base's liveness and graph.
    Otherwise the edit continues cold from the arena just renumbered —
    renumbering still runs once — and returns the fresh snapshot its
    first round captured.  Either way the allocation is byte-identical
    to a cold {!allocate} of the same routine. *)

val check : result -> (unit, string list) Result.t
(** Post-allocation sanity check: the code is valid ILOC and every
    register id is below the machine's [k] for its class. *)
