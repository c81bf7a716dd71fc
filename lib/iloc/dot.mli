(** Graphviz output for control-flow graphs.

    One record-shaped node per basic block (label, φ-nodes, body,
    terminator) and an edge per control transfer:

    {v dune exec bin/ralloc.exe -- dot kernel:tomcatv | dot -Tpdf > cfg.pdf v} *)

val cfg_to_string : Cfg.t -> string
