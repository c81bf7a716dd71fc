(** Pruned SSA construction (§3.1, §4.1 steps 1–3 of the paper).

    φ-nodes are placed on the iterated dominance frontier of each
    register's definition blocks, but only where the register is live-in —
    the {e pruned} SSA of Choi, Cytron and Ferrante, which the paper uses
    to avoid dead φ-nodes.  Renaming is a single walk over the dominator
    tree.  The input must be validated (every use definitely assigned) and
    must not already be in SSA form. *)

val run : Iloc.Cfg.t -> Iloc.Cfg.t
(** Returns a fresh CFG in pruned SSA form; the input is not mutated.
    Every register in the result is a {e value}: it has exactly one
    definition (an instruction or a φ-node). *)

(** Pruned SSA on the flat arena, as side arrays over the input's slots:
    no routine is built.  Value [v] is register
    [Dataflow.Int_vec.get value_reg v] (packed), numbered
    [supply_last + 1 + v] in its original's class — the register {!run}
    gives the same definition.  Shared by the Chaitin–Briggs renumber
    and the SSA family's construction. *)
type values = {
  n_values : int;
  value_reg : Dataflow.Int_vec.t;  (** packed register of each value *)
  slot_def : int array;  (** per slot, the value it defines, or [-1] *)
  slot_use : int array;
      (** at [3 * slot + k], the value source [k] reads, or [-1] *)
  phi_idx : int array;
      (** block [b]'s φs are [phi_idx.(b) .. phi_idx.(b+1) - 1], ascending
          by original register *)
  phi_def : int array;  (** value each φ defines *)
  phi_arg_idx : int array;
  phi_args : int array;
      (** φ [i]'s argument from its block's [j]-th predecessor is value
          [phi_args.(phi_arg_idx.(i) + j)] *)
}

val run_flat : dom:Dataflow.Dominance.t -> Iloc.Flat.t -> values
(** Boundary liveness, dominance frontiers, pruned φ placement and
    renaming over the dominator tree [dom], which must be
    {!Dataflow.Dominance.compute_flat} of the arena: the allocator's
    front half computes it once and hands the same tree to every later
    reader.  Same preconditions as {!run}; only blocks reachable from
    the entry are renamed. *)
