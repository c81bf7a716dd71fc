(** Renumber: from virtual registers to live ranges (§4.1), on the flat
    arena. *)

type flat_result = {
  fl : Iloc.Flat.t;  (** live-range-named arena, φ-free *)
  f_tags : Tag.t Iloc.Reg.Tbl.t;  (** rematerialization tag per live range *)
  f_split_pairs : (Iloc.Reg.t * Iloc.Reg.t) list;
      (** (destination, source) of every split copy inserted; conservative
          coalescing and biased coloring treat these as partners *)
  f_n_values : int;  (** SSA values found (before unioning) *)
  f_n_live_ranges : int;  (** live ranges after steps 5–6 *)
}

val run_flat : Mode.t -> dom:Dataflow.Dominance.t -> Iloc.Flat.t -> flat_result
(** The six steps of the paper's modified renumber:

    + liveness at each basic block;
    + φ-node insertion on dominance frontiers, pruned by liveness;
    + renaming of every operand to refer to values;
    + rematerialization-tag propagation (see {!Remat_analysis});
    + for each copy whose source and destination values carry identical
      [inst] tags: union the values and delete the copy;
    + for each φ-node operand: union it with the result when their tags
      are identical, otherwise insert a {e split} — a distinguished copy —
      in the corresponding predecessor block.

    Under [Mode.No_remat] and [Mode.Chaitin_remat], steps 5–6 degrade to
    Chaitin's original renumber: all values reaching a φ-node are unioned
    and no splits are introduced.  Under
    [Mode.Briggs_remat_phi_splits], step 6 only unions values with equal
    [inst] tags, splitting every other φ edge (§6).

    The output arena has no φ-nodes, and every register in it names a
    live range.  When several splits land on one predecessor edge they
    form a parallel copy and are sequentialized (see
    {!Ssa.Parallel_copy}); scratch registers introduced there are reported
    as ordinary live ranges carrying their source's tag.

    [dom] is the arena's dominator tree
    ({!Dataflow.Dominance.compute_flat}), passed through to
    {!Ssa.Construct.run_flat}: the allocator's front half computes it
    once per allocation, as its [cfa] phase, and renumbering computes
    none of its own.

    Routine-in/routine-out on the arena: frontiers, pruned φ placement
    and renaming operate on packed records and side arrays — SSA exists
    only as per-slot value indices, never as a routine — and a
    {!Iloc.Flat.Splice} builder re-emits the renamed arena.

    Requires critical edges to have been split
    ({!Iloc.Cfg.split_critical_edges}) — split copies go at the end of
    predecessor blocks, which is only correct when no conditional branch
    can read a live range the copies overwrite — and, being flat, no
    φ-nodes in the input.

    The test suite keeps a structured reference renumber, through an SSA
    routine, and the output is byte-identical to it: [Flat.to_routine
    r.fl] structurally equals the reference's routine for
    [Flat.to_routine fl0], with the same supply watermark, tags, split
    pairs and counts. *)
