(** The decoupled SSA allocation pipeline ([Mode.Ssa_remat] /
    [Mode.Ssa_no_remat]), after Bouchez–Darte–Rastello, "Spill
    Everywhere under SSA".

    Where Chaitin–Briggs interleaves spilling with coloring (a failed
    select round triggers spill code and a full rebuild), this pipeline
    decouples them:

    + {e Spill on SSA form} until MaxLive ≤ k per class and block — on
      SSA, MaxLive is the {e exact} pressure criterion.  Spilling is
      "everywhere" (every use reloads or rematerializes into a fresh
      temporary, every surviving definition stores), directed by the
      same {!Remat_analysis} tags as the Chaitin–Briggs pipeline: a
      never-killed value is recomputed before each use instead of
      stored.  A spilled φ-destination is lowered to a {e memory φ}:
      the φ disappears and each predecessor stores the edge's argument
      into the destination's slot, with slot-level parallel-copy
      ordering so a cyclic memory permutation on a back edge cannot
      read an already-overwritten slot.  Each round's φ-edge code and
      instruction-site code go in through one {!Spill_code.insert_flat}
      splice, the same rewrite the Chaitin–Briggs pipeline uses.
    + {e Chordal coloring}: the interference graph of a strict-SSA
      routine is chordal, so a greedy walk of the dominator tree in
      preorder, assigning each value the lowest free color of its class
      (biased toward φ-argument and copy-source colors, which is what
      coalesces the φ-congruence classes at destruction), needs exactly
      MaxLive colors — never more, never a spill round.
    + {e SSA destruction on colored code}: φs become parallel copies of
      physical registers on each incoming edge
      ({!Ssa.Destruct.run_colored}); identity moves — set up by the
      biased coloring — are dropped as coalesced.

    From SSA construction to the bridge before destruction the routine
    lives on the flat arena, with each block's φs kept beside it
    ([Iloc.Flat.phi array array]): the allocator's front half encodes
    the input once ({!Iloc.Flat.of_routine}) and analyses its control
    flow there; the pipeline builds it into SSA on the arena
    ({!Ssa.Construct.run_flat}), spilled, colored and renamed there,
    and bridged to [Cfg.t] once, for {!Ssa.Destruct.run_colored}.

    The two pipelines share the ILOC substrate, liveness, dominance,
    loop weights and the remat tag lattice, but make independent spill
    and color decisions — which is what makes differentially testing
    them against each other informative (see [lib/fuzz]). *)

type result = {
  cfg : Iloc.Cfg.t;  (** allocated routine: φ-free, physical registers *)
  rounds : int;  (** spill rounds + 1, like the Chaitin–Briggs count *)
  spilled_memory : int;  (** values spilled through a frame slot *)
  spilled_remat : int;  (** values spilled by rematerialization *)
  spill_slots : int;
  n_values : int;  (** SSA values before spilling *)
  coalesced : int;
      (** φ-edge and copy moves that vanished because both sides got
          the same color *)
  max_live_int : int;
  max_live_float : int;
      (** MaxLive per class of the final (post-spill) SSA form — the
          chordal bound the coloring must meet *)
  max_colors_int : int;
  max_colors_float : int;
      (** colors the greedy walk actually used; the chordality property
          tested in [test/test_ssa_pipeline.ml] is
          [max_colors ≤ max_live ≤ k] per class *)
}

val cost_table :
  Iloc.Flat.t ->
  Iloc.Flat.phi array array ->
  Dataflow.Loops.t ->
  (Iloc.Reg.t -> Tag.t) ->
  Dataflow.Liveness.t ->
  float array
(** [cost_table fl phis loops tag_of live] — one spill round's cost per
    value of the SSA arena [fl] with [phis] beside it, indexed by
    [live.regs] (the round's {!Dataflow.Liveness.compute} numbering,
    through its [pmap]): 2 per store
    and per reload, 1 per rematerialization, weighted by 10{^ loop
    depth}; φ traffic is charged at the predecessor's weight. *)

type selection = {
  chosen : Iloc.Reg.Set.t;  (** the values to spill this round *)
  stuck : string option;
      (** ["block <label>"] for the first block where some point cannot
          be brought under k *)
  pressure_int : int;
  pressure_float : int;
      (** the largest count per class at any point, as the sweep met it;
          when [chosen] is empty, the routine's MaxLive *)
}

val select :
  Iloc.Flat.t ->
  Iloc.Flat.phi array array ->
  Dataflow.Liveness.t ->
  k:(Iloc.Reg.cls -> int) ->
  cost:float array ->
  spillable:bool array ->
  selection
(** [select fl phis live ~k ~cost ~spillable] — one round's MaxLive
    spill selection: sweeping every program point in block order, spill
    the cheapest spillable values (by [cost], then register) until each
    class fits its [k].  [live] is [Liveness.compute fl ~phis]; [cost]
    and [spillable] are indexed by its numbering. *)

val run :
  mode:Mode.t ->
  machine:Machine.t ->
  max_rounds:int ->
  stats:Stats.t ->
  dom:Dataflow.Dominance.t ->
  loops:Dataflow.Loops.t ->
  Iloc.Flat.t ->
  result
(** [run ~mode ~machine ~max_rounds ~stats ~dom ~loops fl0] allocates
    the arena [fl0] — the allocator's front half's encoding of the
    validated, critical-edge-split input — with [dom] and [loops] its
    {!Dataflow.Dominance.compute_flat} tree and
    {!Dataflow.Loops.compute_flat} nest, which the front half has
    already timed as round 0's [cfa].  The same tree drives SSA
    construction and the chordal coloring's preorder; the loop nest
    weights spill costs.  Raises {!Spill_code.Pressure_too_high} when
    some program point's irreducible pressure (instruction operands,
    φ-congruence traffic) exceeds the machine, and
    {!Allocator.Allocation_error} via the caller when [max_rounds] is
    exhausted. *)
