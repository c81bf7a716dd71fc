(** The interference graph (§2).  Chaitin keeps two representations: a
    bit matrix for membership and adjacency vectors for iteration.  Here
    the adjacency vectors are the whole graph: membership
    ({!interfere}) scans the shorter of two vectors, and no edge set is
    kept, not even while a build runs.  The one build
    ({!build_flat_boundary}) deduplicates by a counting scatter;
    {!add_edge}, which fills graphs made by {!empty} or {!of_edges},
    by that scan.

    Nodes are the live ranges of a renumbered routine (one per register
    name).  An edge joins two live ranges that are simultaneously live at
    some definition point {e and belong to the same register class} — the
    paper's machine colors integer and floating registers from disjoint
    palettes, so cross-class edges would only waste adjacency space.
    Following Chaitin, the destination of a copy does not interfere with
    the copy's source.

    The graph is {e mutable}: coalescing merges two nodes in place with
    {!merge} — unioning their neighbor sets as Chaitin's allocator does —
    instead of forcing a from-scratch rebuild.  A merged-away node stays
    allocated (indices are stable) but is marked dead; {!find} chases the
    forward pointers left by merges to the current representative.
    Adjacency vectors are kept deduplicated, and [n_edges] is maintained
    as a counter under both {!add_edge} and {!merge}. *)

type t

type scratch = {
  mutable emitted : int array array;
      (** the build's emission buffer, one word per candidate pair, in
          256-word chunks (small enough for the minor heap); chunks no
          build has reached yet are [[||]] *)
}
(** Storage one build leaves for the next.  {!build_flat_boundary}
    writes over the chunks it finds here, adds the ones it needs beyond
    them, and leaves them all for the next build.  The allocation
    context keeps one across its spill rounds; the graph an earlier
    build returned never reads it again. *)

val create_scratch : unit -> scratch
(** Empty: no emission buffer. *)

val dense_node_limit : int
(** 32768: the node count at which Chaitin's triangular bit matrix
    would take 64 MB.  A scale marker only — no build branches on it;
    benchmarks use it to tell a routine past the matrix's reach. *)

val build_flat_boundary :
  ?scratch:scratch ->
  ?on_pairs:(emitted:int -> dropped:int -> unit) ->
  ?k:(Iloc.Reg.cls -> int) ->
  Dataflow.Reg_index.t ->
  Iloc.Flat.t ->
  Dataflow.Liveness.Boundary.t ->
  t
(** The allocator's build, on the arena and fed by |U|-compressed
    boundary liveness instead of dense rows: per block, the live-now set
    is seeded from the boundary live-out (translated u-index → node
    index), so no structure wider than [|U|] per block is ever
    materialized.  The node index must be [Dataflow.Reg_index.of_flat]
    of the same arena and the boundary must come from
    {!Dataflow.Liveness.Boundary.compute} on it.  The graph is then
    identical, node numbering and per-node neighbor order included, to
    the structured build the test suite keeps as its reference: one
    backward pass per block of the bridged routine, seeded with the
    dense {!Dataflow.Liveness.compute} live-out set, each edge pushed at
    its pair's first emission and deduplicated by {!add_edge}.

    Two phases.  One sweep appends every candidate pair, with no
    membership check, as one word to an emission buffer.  Then a
    counting scatter sizes one array per node from its emission count,
    drops each pair into both endpoints' arrays in emission order,
    deduplicates each array in place keeping the first occurrence of
    every neighbor, and adopts it as the node's adjacency vector: the
    duplicates' slots stay behind as spare capacity, which {!copy}
    trims.  The emission buffer is taken from, and left in, [scratch];
    a build without [scratch] allocates it fresh.  [on_pairs] reports
    how many candidate pairs the sweep emitted and how many were
    duplicates. *)

val empty : ?k:(Iloc.Reg.cls -> int) -> Dataflow.Reg_index.t -> t
(** A graph over the index's registers with no edges, for {!add_edge}
    to fill: how the test suite's structured reference build starts.
    [k] gives each register class's color count, as for
    {!build_flat_boundary}. *)

val of_edges : ?k:(Iloc.Reg.cls -> int) -> int -> (int * int) list -> t
(** {!empty} over [n] fresh integer-class nodes, with the given edges
    added in order by {!add_edge} (self-loops and duplicates ignored) —
    hand-made graphs for tests. *)

val interfere : t -> int -> int -> bool
(** Scans the shorter of the two adjacency vectors: O(min degree). *)

val packed_map : t -> int array
(** {!Dataflow.Reg_index.packed_map} of the node numbering, kept from the build
    (shared by {!copy}; read-only) so flat-form sweeps over the same
    routine need not allocate their own. *)

val union_edges : t -> int
(** Total number of edges {!merge} has added — the neighbors of a
    dropped node that the kept node did not already have — since the
    build (carried over by {!copy}): how far coalescing pushed the graph
    beyond its build. *)

val copy : t -> t
(** Independent deep copy: mutating the copy (coalescing, merges) leaves
    the original untouched.  The immutable node index is shared; the
    copy gets its own merge scratch, and its adjacency vectors are
    exactly sized (a build's spare capacity is not copied).  Used
    by the serving layer to hand each request a private graph cloned
    from a cached build. *)

val neighbors : t -> int -> int list
(** Fresh list; prefer {!iter_neighbors}/{!fold_neighbors} on hot
    paths.  Neighbor order is unspecified (vectors use swap-removal). *)

val iter_neighbors : (int -> unit) -> t -> int -> unit

val exists_neighbor : (int -> bool) -> t -> int -> bool
(** Visits the node's neighbors in vector order until [f] accepts one:
    a scan that can stop early, as Briggs' test does once it has seen
    [k] significant neighbors. *)

val fold_neighbors : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a
val degree : t -> int -> int
val reg : t -> int -> Iloc.Reg.t
val index : t -> Iloc.Reg.t -> int
val index_opt : t -> Iloc.Reg.t -> int option
val n_nodes : t -> int

val n_edges : t -> int
(** O(1): a counter maintained by {!add_edge} and {!merge}. *)

val alive : t -> int -> bool
val n_alive : t -> int

val significant : t -> int -> bool
(** [degree ≥ k] for the node's class — the Briggs criterion's notion of
    a constrained node.  Always [false] when the graph was built without
    [?k].  Read off the current degree; no per-node count of significant
    neighbors is kept, since only Briggs' test would read one and its
    early-exit scan needs none. *)

val find : t -> int -> int
(** Current representative of a node: itself while alive, else the node
    it was merged into, transitively (with path compression). *)

val add_edge : t -> int -> int -> unit
(** Adds the edge unless it is a self-loop or already present (checked
    with {!interfere}). *)

val merge : t -> keep:int -> drop:int -> unit
(** Merge live range [drop] into [keep], in place: [keep]'s neighbor set
    becomes the union of the two, degrees of common neighbors are
    adjusted, [drop] becomes dead with an empty adjacency and a forward
    pointer to [keep].  Both nodes must be alive and distinct.  [keep]'s
    neighbors are stamped in the graph's own epoch scratch, so each of
    [drop]'s neighbors costs one swap-removal from its vector and no
    membership probe; new edges are pushed in [drop]'s vector order.

    The union is a {e safe over-approximation} of rebuilding from the
    coalesced routine: it never misses an interference, but it can keep
    an edge a rebuild would drop — when the merge enlarges a copy's
    source range (the dst–src omission at that copy then covers more),
    or when collapsing a φ copy-cycle leaves the merged range with fewer
    occurrences than its constituents had.  Such slack is always
    incident to a merged node, disappears at the next spill round's full
    build, and only ever makes coloring more conservative (see
    test_incremental.ml for the machine-checked statement). *)
