(** Graphviz output for interference graphs.

    Nodes are live ranges (ellipses for integer, boxes for float, degree
    in the label); interference edges are solid, split-partner relations
    dotted:

    {v dune exec bin/ralloc.exe -- dot kernel:fehl --interference \
         | dot -Tsvg > ig.svg v} *)

val interference_to_string :
  ?split_pairs:(Iloc.Reg.t * Iloc.Reg.t) list ->
  Interference.t ->
  string

val stats : Format.formatter -> Stats.t -> unit
(** Per-round phase timers followed by the event counters — the report
    behind [ralloc alloc --stats]. *)
