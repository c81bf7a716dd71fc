(** The checker's abstract domain: sets of equations between storage
    locations of the allocated routine and virtual registers of the
    source routine.

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
    order — facts are only ever an under-approximation of the truth. *)

open Iloc

type t

val empty : t
(** No facts: nothing can be proved from it, everything may be bound. *)

val equal : t -> t -> bool
val meet : t -> t -> t

val holds : t -> Reg.t -> Loc.t -> bool
(** [holds st v l]: can [l] be proved to carry the current value of
    source register [v]?  Register locations must match [v]'s class —
    a same-width reinterpretation (e.g. an [ldro] of the same address
    into the other register class) is not a proof. *)

(** {1 Transfer functions} *)

val kill_loc : t -> Loc.t -> t
(** Location overwritten by an unrecognised definition. *)

val kill_vreg : t -> Reg.t -> t
(** Source register redefined: its former value is no longer "the
    current value of [v]" anywhere. *)

val bind_def : t -> vreg:Reg.t -> loc:Loc.t -> t
(** A matched computation defines source register [vreg] into [loc]:
    kill both, then record [eqs(loc) = {vreg}]. *)

val loc_copy : t -> src:Loc.t -> dst:Loc.t -> t
(** Allocator-inserted data movement ([copy], [spill], [reload]):
    [dst] inherits every fact [src] had. *)

val input_copy : t -> dst:Reg.t -> src:Reg.t -> t
(** Source-only [copy dst src] (coalesced away by the allocator):
    [dst]'s new value is [src]'s current one, so [dst] joins [src] in
    every location fact, and inherits its [consts] tag. *)

val input_const : t -> vreg:Reg.t -> op:Instr.op -> t
(** Source-only never-killed definition (deleted by the spiller in
    favour of rematerialization, or simply not yet emitted): record the
    tag [consts(vreg) = op]. *)

val remat : t -> loc:Loc.t -> op:Instr.op -> t
(** Allocator-inserted rematerialization of never-killed [op] into
    [loc]: record [exprs(loc) = op], plus [eqs(loc) ∋ v] for every [v]
    whose current tag is [remat_equal] to [op]. *)
