(** Local value numbering with constant folding and copy propagation.

    Within each basic block, pure computations (arithmetic, comparisons,
    conversions, never-killed loads) are numbered; a recomputation of an
    already-available value becomes a copy of the register holding it
    (coalescing or dead-code elimination cleans those up), and operations
    whose inputs are all constants fold to immediate loads.  Commutative
    operators are canonicalized.  Memory loads from writable data are not
    numbered, so stores need no invalidation logic.

    This is part of the "optimizing compiler" substrate the paper's ILOC
    comes from: CSE is what turns repeated address arithmetic and constant
    references into few long-lived registers — the live ranges
    rematerialization later competes over. *)

val routine : Iloc.Cfg.t -> bool
(** Rewrite every block in place; returns true if anything changed. *)

(** {1 Shared machinery}

    The dominator-scoped value numbering pass ({!Svn}) reuses the same
    expression identity, commutativity and folding rules. *)

type const =
  | Cint of int
  | Cfloat of float
  | Caddr of string * int
  | Cfp of int

val numberable : Iloc.Instr.op -> bool
val commutative : Iloc.Instr.op -> bool
val fold : Iloc.Instr.op -> const option list -> const option
