(** Select: color assignment with biased coloring (§2, §4.3).

    Nodes are colored in the order simplify produced.  Colors are small
    integers, drawn per register class ([0 .. k(cls)-1]); integer and
    floating palettes are disjoint.

    Biased coloring: before picking the lowest available color, select
    first tries colors already assigned to the node's {e partners} — live
    ranges connected to it by split copies.  With limited lookahead, when
    a node has an uncolored partner, select prefers an available color
    that the partner could still take, raising the chance the pair ends up
    sharing a register so the split copy becomes removable dead work
    (§4.3). *)

type t = {
  colors : int option array;  (** [None] marks a node select left uncolored *)
  spilled : int list;
      (** uncolored members of the coloring order, ascending — nodes
          merged away by coalescing are not spills *)
  partner_hits : int;  (** nodes that took a colored partner's color *)
  lookahead_hits : int;
      (** nodes colored via the uncolored-partner lookahead *)
  fallback_hits : int;  (** nodes that took the plain lowest color *)
}

val run :
  Interference.t ->
  k:(Iloc.Reg.cls -> int) ->
  order:int list ->
  partners:int list array ->
  t

val partners : Interference.t -> int array -> int list array
(** [partners g split_nodes]: per node of [g], the nodes the split
    pairs connect it to, latest pair first.  [split_nodes] is the
    round's {!Coalesce.worklist} node form of [Context.split_pairs];
    each side is taken through {!Interference.find}, and pairs with a
    side that is not a node, or whose sides coalescing joined, are
    skipped. *)

val phase :
  Context.t -> Interference.t -> split_nodes:int array -> order:int list -> t
(** {!run} on the round's graph and the context's machine with the
    {!partners} of [split_nodes], timed as [Select]; the bias-outcome
    tallies are recorded as [Select_*] counters. *)
