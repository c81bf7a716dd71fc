(** Coalescing (§2 and §4.2), incremental.

    Two regimes, run as the paper prescribes: first {e unrestricted}
    coalescing of ordinary copies to a fixpoint, then {e conservative}
    coalescing of split copies.  A split [l_i <- l_j] may only be
    coalesced when the combined live range has fewer than [k] neighbors of
    {e significant degree} (degree ≥ k) — Briggs' criterion, which
    guarantees the merged node is removable by simplify and therefore will
    never be spilled.

    Each merge updates the context's interference graph {e in place}
    ({!Interference.merge}: the neighbor sets are unioned, as Chaitin's
    allocator does) instead of asking the caller to recompute liveness and
    rebuild — the change that caps the build–coalesce loop at one full
    {!Interference.build_flat_boundary} per spill round.  Because the
    graph is current after every merge, both regimes may perform many
    merges per sweep.  Sweeps never read the routine's text; it changes
    once per round, when {!rewrite} renames the arena after the last
    sweep. *)

type phase = Unrestricted | Conservative

type outcome = {
  changed : bool;
  coalesced : int;  (** copies removed this sweep *)
}

val pass : phase -> Context.t -> outcome
(** One sweep over the copy {e worklist}.  The worklist is harvested
    from the routine once per spill round (cached on the context;
    dropped by {!Context.invalidate}) instead of re-scanning every block
    each sweep, and it only shrinks: a copy leaves it when it is merged,
    becomes an identity, or its live ranges are found to interfere —
    interference between representatives only grows under merging, so
    such a copy can never become coalescable again.  Entry registers are
    canonicalized through {!Interference.find} at sweep start: the names
    the copy would carry had the text been renamed after every earlier
    sweep.

    Mutates the context's graph, tag table, infinite-cost table and
    split pairs (not its arena), and records [Coalesce] time plus
    sweep/merge/Briggs counters in the context's stats. *)

val rewrite : Context.t -> unit
(** After sweeps that merged: {!rename} the context's arena to live-range
    representatives (identity copies drop out) and invalidate liveness.
    Timed as [Coalesce]. *)

val rename : Interference.t -> (int -> int) -> Iloc.Flat.t -> Iloc.Flat.t
(** [rename g id fl]: {!Iloc.Flat.rename} taking each register of node
    [n] of [g] to number [id (find n)] of its class; other registers
    stay. *)
