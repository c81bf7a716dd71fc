(** Flat, arena-backed routine form.

    A routine's instruction stream packed into one [int array], {!stride}
    ints per instruction, with side pools for float immediates, symbol
    names and wide operands, plus CSR-encoded CFG edges.  This is the
    representation the allocator's hot phases (liveness, interference
    construction, spill-code splicing) sweep with zero per-instruction
    allocation; {!of_routine}/{!to_routine} bridge losslessly to the
    structured {!Cfg.t} view used by the parser, printer, validator and
    tests (see DESIGN.md §13 for the word layout).

    The record fields are exposed for the same reason {!Cfg.t}'s are:
    phase inner loops index the arrays directly.  Treat them as
    read-only; mutation goes through {!Splice}. *)

val stride : int
(** Ints per instruction record (6). *)

(** Field offsets within a record: [slot * stride + f_*]. *)

val f_tag : int
val f_dst : int
val f_s0 : int
val f_s1 : int
val f_s2 : int
val f_ex : int

val none : int
(** Operand sentinel for "no register here" (-1). *)

val packed_of_reg : Reg.t -> int
(** [2*id + class_bit] (Int = 0, Float = 1) — numerically equal to
    [Reg.hash], so ascending packed order is exactly [Reg.compare]
    order. *)

val reg_of_packed : int -> Reg.t

(** Opcode tags, one per [Instr.op] constructor in declaration order.
    Payloads live in the [ex] field: immediates/offsets/slots directly;
    [Cmp]/[Fcmp] relations as a code 0-5; [Lfi] as a float-pool index;
    [Laddr]/[Ldro] as an aux-pool index of a [sym_idx, offset] pair;
    [Jmp] as a target block id; [Cbr] as an aux-pool index of a
    [target1, target2] block-id pair.  Exported are the tags the
    allocator emits (rematerialization sequences, spills, reloads and
    copies) and the two classes it tests. *)
module Tag : sig
  val ldi : int
  val lfi : int
  val laddr : int
  val lfp : int
  val ldro : int
  val copy : int
  val spill : int
  val reload : int

  val never_killed : int -> bool
  val is_copy : int -> bool
end

type t = {
  name : string;
  entry : int;
  symbols : Symbol.t list;
  labels : string array;
  block_start : int array;
      (** length [n_blocks + 1]; block [b]'s records occupy slots
          [block_start.(b) .. block_start.(b+1) - 1], the last being the
          terminator *)
  code : int array;
  floats : float array;
  syms : string array;
  aux : int array;
  succ_idx : int array;
  succ : int array;  (** CSR successors, deduplicated ascending *)
  pred_idx : int array;
  pred : int array;  (** CSR predecessors, ascending block order *)
  supply_last : int;
}

type phi = { dst : int; args : (int * int) list }
(** A φ-node kept beside an arena, which encodes none: the packed
    destination and one [(predecessor block, packed argument)] pair per
    incoming edge, keyed by predecessor like {!Phi.t}'s.  An SSA-form
    routine lives on the arena as the arena plus one [phi array] per
    block. *)

val of_routine : Cfg.t -> t
(** Raises [Invalid_argument] if the routine is in SSA form (φ-nodes
    have no flat encoding; the allocator runs flat only outside SSA). *)

val to_routine : t -> Cfg.t
(** Inverse of {!of_routine} up to [Cfg.structural_equal]; the register
    supply watermark is preserved exactly. *)

val n_blocks : t -> int
val n_instrs : t -> int

val block_first : t -> int -> int
val block_term : t -> int -> int
(** First and terminator slot of a block. *)

val tag : t -> int -> int
val dst : t -> int -> int
val src : t -> int -> int -> int
(** [src t slot i] is packed source [i] (0-2) of [slot], or {!none}. *)

val succs_list : t -> int -> int list
val preds_list : t -> int -> int list

val decode_op : t -> int -> Instr.op
(** Decode one slot's opcode, payloads included, without touching the
    operand fields — rematerialization tags carry the op alone (register
    operands live outside it), so the flat renumbering initializes tags
    from this directly. *)

val rename : t -> (int -> int) -> t
(** [rename t f] replaces every register operand [p] (packed) by [f p]
    and deletes each copy whose destination and source this makes the
    same register.  Blocks, edges, pools and the supply watermark are
    shared with [t]. *)

(** Rebuilding the code arena with spill code spliced in.  Blocks and
    labels are shared with the source arena — spill insertion never adds
    any — and the constant pools are shared too until a
    rematerialization payload misses them, at which point the builder
    switches that pool to a private growable copy with a lazily-built
    intern table.  Emit each block's records in order (terminator last),
    call {!Splice.close_block} after each block, then {!Splice.finish}. *)
module Splice : sig
  type builder

  val create : t -> builder

  val emit :
    builder -> tag:int -> dst:int -> s0:int -> s1:int -> s2:int -> ex:int -> unit

  val emit_slot : builder -> int -> unit
  (** Copy a source-arena slot verbatim. *)

  val emit_slot_subst : builder -> int -> s0:int -> s1:int -> s2:int -> unit
  (** Copy a source-arena slot with its source operands replaced. *)

  val intern_float : builder -> float -> int
  (** Pool index for a float immediate, by bit pattern — the source
      arena's entry when present, otherwise a fresh appended one. *)

  val intern_sym : builder -> string -> int
  (** Pool index for a symbol name, likewise. *)

  val emit_pair : builder -> int -> int -> int
  (** Append a two-int record to the aux pool and return its index —
      the [ex] payload shape of [Laddr]/[Ldro] (and [Cbr]). *)

  val close_block : builder -> unit

  val finish : builder -> supply_last:int -> t
  (** Raises [Invalid_argument] unless exactly [n_blocks] blocks were
      closed. *)
end
