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
    from the routine once per spill round, as node pairs of the round's
    graph (cached on the context; dropped by {!Context.invalidate})
    instead of re-scanning every block each sweep, and it only shrinks:
    a copy leaves it when it is merged, becomes an identity, or its live
    ranges are found to interfere — interference between
    representatives only grows under merging, so such a copy can never
    become coalescable again.  Entries are canonicalized through
    {!Interference.find} at sweep start: the live ranges the copy would
    name had the text been renamed after every earlier sweep.  The split
    pairs are read as node pairs too ([Context.split_nodes], made by the
    round's first sweep), so a sweep hashes no register.

    Briggs' test counts the significant neighbors of the would-be
    merged node in one scan of both adjacency vectors and stops at the
    [k]th, which decides a denial.

    Mutates the context's graph, tag table, infinite-cost table, copy
    worklist and split pairs' node form (not its arena, nor
    [split_pairs] itself: {!rewrite} updates those), and records
    [Coalesce] time plus sweep/merge/Briggs counters in the context's
    stats. *)

val split_nodes : Context.t -> Interference.t -> int array
(** [Context.split_nodes], made from [Context.split_pairs] through the
    graph's packed map when absent: entries [2c] and [2c+1] are pair
    [c]'s nodes, [-1] for a register that is not a node. *)

val rewrite : Context.t -> unit
(** After the round's last sweep, when some sweep merged: turn the
    split pairs' node form back into [Context.split_pairs] (each node to
    its representative's register, in list order, pairs whose sides
    became one live range dropped), {!rename} the context's arena to
    live-range representatives (identity copies drop out) and drop the
    liveness rows, which nothing later in the round reads.  Timed as
    [Coalesce]. *)

val rename : Interference.t -> (int -> int) -> Iloc.Flat.t -> Iloc.Flat.t
(** [rename g id fl]: {!Iloc.Flat.rename} taking each register of node
    [n] of [g] to number [id (find n)] of its class; other registers
    stay. *)
