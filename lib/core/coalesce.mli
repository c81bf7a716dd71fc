(** Coalescing (§2 and §4.2), incremental.

    Two regimes, run as the paper prescribes: first {e unrestricted}
    coalescing of ordinary copies to a fixpoint, then {e conservative}
    coalescing of split copies.  A split [l_i <- l_j] may only be
    coalesced when the combined live range has fewer than [k] neighbors of
    {e significant degree} (degree ≥ k) — Briggs' criterion, which
    guarantees the merged node is removable by simplify and therefore will
    never be spilled.

    Each merge updates the round's interference graph {e in place}
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

type worklist = {
  mutable copies : int array;
      (** the round's copies as node pairs of its graph, flattened
          (entry [2c] is copy [c]'s destination node, [2c+1] its
          source); each sweep compacts it to the copies still worth
          trying *)
  split_nodes : int array;
      (** [Context.split_pairs] as node pairs of the round's graph,
          flattened the same way and in the same order, [-1] for a
          register that is not a node *)
}
(** What a round's coalescing sweeps share, and select's partner lists
    read: made once per round, from the round's graph. *)

val worklist : Context.t -> Interference.t -> worklist
(** Harvest the context's arena for its copies and translate
    [Context.split_pairs], both through the graph's packed map: every
    register of the arena is a node of the graph built from it.  Timed
    as [Coalesce]. *)

val pass : phase -> Context.t -> Interference.t -> worklist -> outcome
(** One sweep over the copy worklist, which only shrinks: a copy leaves
    it when it is merged, becomes an identity, or its live ranges are
    found to interfere — interference between representatives only
    grows under merging, so such a copy can never become coalescable
    again.  Entries are canonicalized through {!Interference.find} at
    sweep start: the live ranges the copy would name had the text been
    renamed after every earlier sweep.  The split pairs are read in
    their node form too, so a sweep hashes no register.

    Briggs' test counts the significant neighbors of the would-be
    merged node in one scan of both adjacency vectors and stops at the
    [k]th, which decides a denial.

    Mutates the graph, the worklist's copies and the context's tag and
    infinite-cost tables (not its arena, nor [split_pairs]: {!rewrite}
    updates those), and records [Coalesce] time plus sweep/merge/Briggs
    counters in the context's stats. *)

val rewrite : Context.t -> Interference.t -> worklist -> unit
(** After the round's last sweep, when some sweep merged: turn the
    split pairs' node form back into [Context.split_pairs] (each node to
    its representative's register, in list order, pairs whose sides
    became one live range dropped) and {!rename} the context's arena to
    live-range representatives (identity copies drop out).  Timed as
    [Coalesce]. *)

val rename : Interference.t -> (int -> int) -> Iloc.Flat.t -> Iloc.Flat.t
(** [rename g id fl]: {!Iloc.Flat.rename} taking each register of node
    [n] of [g] to number [id (find n)] of its class; other registers
    stay. *)
