(** The translation validator.

    [routine ~input ~output ~k_int ~k_float] proves — or refuses to
    prove — that [output] is a faithful allocation of [input]: same
    observable behaviour, at most [k_int] integer and [k_float]
    floating-point registers.  It is a forward dataflow analysis over
    the allocated code (see {!State}) combined with a lockstep walk
    that aligns each output block with the source block of the same
    label:

    - source-only instructions must be ones the allocator may delete
      (copies, never-killed definitions); their effect is folded into
      the abstract state;
    - output-only instructions must be ones the allocator may insert
      (copies, spills, reloads, never-killed rematerializations);
    - everything else must match the next source instruction
      structurally, and every register operand must be proved to carry
      the corresponding source value;
    - branches may pass through allocator-inserted forwarding blocks
      (critical-edge splits), but must reach the same source label the
      source terminator names.

    The abstract state lives in one {!State.work} per call: a walk loads
    its block's entry snapshot into it, every instruction mutates it
    through a transfer that touches only the facts it changes, and the
    exit state is frozen into a snapshot for the successors, where it
    meets their entry states.  Registers, locations and ops are interned
    into dense ints by the working state's own hash tables as the walks
    meet them.

    The fixpoint sweeps the blocks whose entry state changed in reverse
    postorder of the output CFG until a sweep changes nothing, so a
    block is walked about twice on typical routines however deeply
    their loops nest.  Each walk records its block's errors and
    counters, replacing the block's previous record; a block is walked
    again whenever its entry state changes, so at the fixpoint every
    record comes from the block's final state.  The report concatenates
    them in block order.  The fixpoint is unique, so the schedule
    decides no verdict.

    The checker shares no code with the allocator: it never reads
    {!Core} tags, costs, or interference information, only the two
    routines.  A clean run is a proof relative to the stated abstract
    domain (see DESIGN.md §12 for exactly what is and is not covered);
    a rejection names the offending output block and instruction. *)

open Iloc

type report = {
  blocks_checked : int;  (** anchored (source-labelled) blocks verified *)
  instrs_matched : int;  (** hard instructions matched 1:1 *)
  uses_checked : int;  (** register operands proved to carry source values *)
  remats_checked : int;  (** rematerializations folded into the state *)
  copies_skipped : int;
      (** allocator-inserted copies/spills/reloads, plus source-only
          copies and never-killed definitions *)
  fixpoint_visits : int;
      (** block walks the fixpoint made; the other counts are each
          block's last walk.  Not printed by {!report_to_string} *)
}

val report_to_string : report -> string

val routine :
  input:Cfg.t ->
  output:Cfg.t ->
  k_int:int ->
  k_float:int ->
  (report, Error.t list) result
(** A source outside the checker's domain draws only {!source_gate}'s
    error (kind {!Error.Unsupported}): nothing is proved either way.  A
    φ-function in [output] is a {!Error.Structure} error.  Any other
    error is a genuine rejection. *)

val source_gate : Cfg.t -> Error.t option
(** The source domain, which is also the allocator's input contract: no
    φ-function and no [spill]/[reload] (allocation numbers frame slots
    itself).  Returns the first φ-function (naming its block) or spill
    opcode (naming block and body index) as an {!Error.Unsupported}
    error, or [None].  [Remat.Allocator] refuses every input it names,
    so only direct callers of {!routine} meet [Unsupported]. *)

val over_k : k_int:int -> k_float:int -> Cfg.t -> Error.t list
(** An {!Error.Over_k} error for each register operand at or above its
    class's [k], in instruction order; {!routine} reports these too. *)
