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
  ?batch_build:bool ->
  Iloc.Cfg.t ->
  result
(** [mode] defaults to {!Mode.Briggs_remat}, [machine] to
    {!Machine.standard}, [max_rounds] to 64.  [batch_build] forces the
    graph construction strategy (batched vs. incremental — see
    {!Interference.build_flat_boundary}); unset, the node count decides.
    Output is byte-identical either way.  The input routine must pass
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

type snapshot
(** Everything a small edit of a routine leaves valid: the pristine
    renumbered code, boundary liveness ({!Dataflow.Liveness.Boundary}),
    and a freshly built interference graph — all produced by the same
    flat-arena code a cold {!allocate} runs.  Liveness and the graph see only def/use registers, copies
    and terminator targets — never immediate payloads or source-operand
    order — so an edit preserving that skeleton reuses both.  A snapshot
    is immutable once built: concurrent {!allocate_incremental} calls
    may share one (each takes a private graph copy and shares the
    liveness rows read-only). *)

val snapshot :
  ?mode:Mode.t -> ?machine:Machine.t -> Iloc.Cfg.t -> snapshot
(** Renumber the routine and force liveness + graph construction,
    capturing all three for later {!allocate_incremental} calls.  Costs
    roughly the pre-coloring front half of an allocation.  The input
    must pass {!Iloc.Validate.routine}. *)

val allocate_incremental :
  ?verify:bool ->
  ?max_rounds:int ->
  snapshot ->
  Iloc.Cfg.t ->
  (result * snapshot) option
(** Allocate an edited variant of the snapshotted routine, skipping the
    first round's from-scratch liveness and graph build by priming the
    context from the snapshot.  The edited routine is still renumbered
    (tag unioning can change under payload edits); if its live-range
    skeleton diverges from the snapshot's, [None] is returned and the
    caller must fall back to a cold {!allocate} — reuse only happens
    when it is provably sound, so the returned allocation is always
    byte-identical to a cold allocation of the same routine.  On success
    the first round performs no [Full_builds] and no [Liveness_runs]
    (observable in [result.stats]: [Full_builds] = rounds − 1 instead of
    rounds), and a new snapshot for the {e edited} routine is returned,
    sharing the cached liveness/graph.  Returns [None] for modes with a
    loop-splitting scheme (splitting rewrites the routine after
    renumber). *)

val check : result -> (unit, string list) Result.t
(** Post-allocation sanity check: the code is valid ILOC and every
    register id is below the machine's [k] for its class. *)
