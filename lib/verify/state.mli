(** The checker's abstract domain: sets of equations between storage
    locations of the allocated routine and virtual registers of the
    source routine.

    A location is a place the allocator may park a value: a physical
    register, or a spill slot in the per-routine frame area
    ({!Iloc.Instr.Spill} / {!Iloc.Instr.Reload} operands).
    Rematerialization sequences have no location of their own — they
    recreate a value {e into} a register, so they appear as facts
    attached to a register location.

    A state is a conjunction of facts of three shapes, in the spirit of
    the Rideau–Leroy validated register-allocation checker:

    - [eqs]: location [l] currently holds the {e current} value of each
      source virtual register in [eqs(l)];
    - [exprs]: location [l] holds the value computed by a never-killed
      opcode (the result of a rematerialization sequence, possibly
      spilled and reloaded since);
    - [consts]: source virtual register [v]'s current value is the one
      computed by a never-killed opcode — the checker's own flow-
      sensitive re-derivation of the paper's tag lattice, built without
      consulting the allocator's tags.

    A use of source register [v] satisfied from location [l] is correct
    if [v ∈ eqs(l)], or if [exprs(l)] and [consts(v)] are both present
    and {!Iloc.Instr.remat_equal} — a rematerialized expression is
    context-independent, so recomputing it anywhere yields [v]'s value.

    The absence of a fact never claims anything, so the empty state is
    the safe entry assumption and [meet] (set intersection /
    agree-or-drop) is the join-point operator.  States only shrink under
    [meet], which both guarantees termination of the fixpoint and means
    a check that fails at the fixpoint would also fail in any execution
    order — facts are only ever an under-approximation of the truth.

    {2 Representation}

    The domain lives in two forms (DESIGN.md §12.1).  A block walk
    mutates one {!work}ing state in place, where every transfer touches
    only the facts it changes.  Block entry states are immutable
    snapshots ({!t}) of sorted int keys, so {!meet} is a
    merge-intersection and {!equal} an array comparison.  Registers,
    locations and ops are interned into dense ints by the working state
    that owns them; snapshots of one working state only ever meet,
    compare with, or load into that working state. *)

open Iloc

type vreg = private int
(** An interned source virtual register. *)

type loc = private int
(** An interned location: a physical register or a spill slot. *)

type op = private int
(** An interned never-killed opcode; two ops intern to the same int
    exactly when they are {!Iloc.Instr.remat_equal}. *)

(** {1 Entry states} *)

type t
(** An immutable snapshot of a working state. *)

val empty : t
(** No facts: nothing can be proved from it, everything may be bound. *)

val equal : t -> t -> bool
val meet : t -> t -> t

(** {1 The working state} *)

type work
(** One mutable state plus the tables that intern registers, locations
    and ops.  Interning grows the state; a check creates one per
    routine and walks every block in it. *)

val create : unit -> work

val vreg : work -> Reg.t -> vreg
val reg_loc : work -> Reg.t -> loc
val slot_loc : work -> int -> loc

val op : work -> Instr.op -> op
(** Only never-killed opcodes ({!Iloc.Instr.never_killed}) are ever
    tags or expressions. *)

val load : work -> t -> unit
(** Replace the working state's facts by the snapshot's, in time
    proportional to the facts dropped and loaded. *)

val freeze : work -> t
(** The working state's facts as a snapshot; the working state is left
    as it was. *)

val holds : work -> vreg -> loc -> bool
(** [holds w v l]: can [l] be proved to carry the current value of
    source register [v]?  Register locations must match [v]'s class —
    a same-width reinterpretation (e.g. an [ldro] of the same address
    into the other register class) is not a proof.  Costs a scan of
    the locations known to hold [v]. *)

(** {1 Transfer functions}

    Each mutates the working state.  Their cost is the number of facts
    they remove or add, never the size of the state. *)

val kill_loc : work -> loc -> unit
(** Location overwritten by an unrecognised definition. *)

val kill_vreg : work -> vreg -> unit
(** Source register redefined: its former value is no longer "the
    current value of [v]" anywhere. *)

val bind_def : work -> vreg:vreg -> loc:loc -> unit
(** A matched computation defines source register [vreg] into [loc]:
    kill both, then record [eqs(loc) = {vreg}]. *)

val loc_copy : work -> src:loc -> dst:loc -> unit
(** Allocator-inserted data movement ([copy], [spill], [reload]):
    [dst] inherits every fact [src] had. *)

val input_copy : work -> dst:vreg -> src:vreg -> unit
(** Source-only [copy dst src] (coalesced away by the allocator):
    [dst]'s new value is [src]'s current one, so [dst] joins [src] in
    every location fact, and inherits its [consts] tag. *)

val input_const : work -> vreg:vreg -> op:op -> unit
(** Source-only never-killed definition (deleted by the spiller in
    favour of rematerialization, or simply not yet emitted): record the
    tag [consts(vreg) = op]. *)

val remat : work -> loc:loc -> op:op -> unit
(** Allocator-inserted rematerialization of never-killed [op] into
    [loc]: record [exprs(loc) = op], plus [eqs(loc) ∋ v] for every [v]
    whose current tag is [remat_equal] to [op]. *)
