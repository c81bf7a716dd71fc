(** Delta-debugging reduction of failing routines.

    [run ~interesting cfg] greedily minimizes [cfg] while [interesting]
    keeps holding (and the candidate stays a valid, non-SSA routine per
    {!Iloc.Validate.routine} — reductions never trade the original
    divergence for a mere validity error).  The passes, iterated to a
    fixpoint:

    - {e straighten branches}: replace a [cbr] by a [jmp] to either
      target, then drop unreachable blocks;
    - {e bypass blocks}: delete a block that ends in [jmp], retargeting
      its predecessors at its successor;
    - {e drop instructions}: ddmin-style windows over each block body,
      from whole-body down to single instructions;
    - {e shrink immediates}: move integer and float literals toward zero,
      halving;
    - {e merge registers}: substitute one register for another of the
      same class (smaller id), shrinking the live-range space;
    - {e drop symbols}: delete static data no instruction references.

    Every accepted candidate strictly decreases the measure
    (blocks, instructions, Σ|immediate|, Σ register ids), so the
    process terminates; 200 fixpoint rounds are a safety bound on
    top.  The result prints via {!Iloc.Printer} and reparses with
    {!Iloc.Parser} (guaranteed by the round-trip property). *)

val instr_count : Iloc.Cfg.t -> int
(** Instructions in the routine, terminators included. *)

val run : interesting:(Iloc.Cfg.t -> bool) -> Iloc.Cfg.t -> Iloc.Cfg.t
(** The input is returned unchanged if no pass can shrink it (or if it is
    not [interesting] to begin with). *)
