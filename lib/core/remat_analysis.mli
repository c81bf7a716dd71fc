(** Rematerialization-tag propagation (§3.2).

    An analog of Wegman and Zadeck's sparse simple constant algorithm over
    the SSA value graph: values defined by never-killed instructions start
    at [Inst], copies and φ-nodes start at [Top], everything else starts at
    [Bottom].  Copies take their source's tag; φ results take the meet of
    their arguments.  The worklist touches only edges of the sparse value
    graph (copy sources and φ arguments), never whole blocks.

    Any value still [Top] at the fixpoint (only possible for copy/φ cycles
    never fed by a real definition, which validated code cannot contain)
    is lowered to [Bottom] for safety, so the published result — "this
    process tags each value in the SSA graph with either an instruction or
    ⊥" — holds for every input. *)

val run : Iloc.Cfg.t -> Ssa.Values.t -> Tag.t array
(** Tags indexed like the value table. *)

val run_flat : Iloc.Flat.t -> Ssa.Construct.values -> Tag.t array
(** [run] over {!Ssa.Construct.run_flat}'s side arrays for the arena it
    was computed from: tags indexed by value. *)
