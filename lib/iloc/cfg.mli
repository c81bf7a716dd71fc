(** Control-flow graphs over {!Block}s.

    A [Cfg.t] is one routine: an array of blocks indexed by block id, an
    entry block, the routine's static data symbols, and a register supply
    seeded past the highest register id in use.  Edge arrays are cached;
    call {!rebuild_edges} after any transformation that changes terminator
    targets or adds blocks (none of the allocator's phases do once
    {!split_critical_edges} has run). *)

type t = {
  name : string;
  mutable blocks : Block.t array;
  entry : int;
  symbols : Symbol.t list;
  supply : Reg.Supply.t;
  mutable succs : int list array;
  mutable preds : int list array;
}

val make : name:string -> ?symbols:Symbol.t list -> Block.t list -> t
(** Blocks must be numbered densely from 0 in list order; block 0 is the
    entry.  Raises [Invalid_argument] on dangling labels, duplicate labels,
    or misnumbered blocks. *)

val n_blocks : t -> int
val block : t -> int -> Block.t
val entry_block : t -> Block.t
val succs : t -> int -> int list
val preds : t -> int -> int list
val find_label : t -> string -> int
val rebuild_edges : t -> unit

val iter_blocks : (Block.t -> unit) -> t -> unit
val fold_blocks : ('a -> Block.t -> 'a) -> 'a -> t -> 'a

val iter_instrs : (Block.t -> Instr.t -> unit) -> t -> unit
(** Iterate every non-φ instruction, terminators included. *)

val fresh_reg : t -> Reg.cls -> Reg.t

val all_regs : t -> Reg.Set.t
(** Every register mentioned by any instruction or φ-node. *)

val drop_unreachable : t -> t
(** Return a CFG containing only the blocks reachable from the entry
    (block ids are renumbered densely; the input is returned unchanged if
    everything is reachable). *)

val split_critical_edges : t -> t
(** Return a new CFG in which no edge leaves a block with several
    successors and enters a block with several predecessors, and which
    contains no unreachable blocks ({!drop_unreachable} runs first).
    Inserted blocks contain a single [jmp].  Degenerate conditional branches with
    two equal targets are normalized to [jmp], so afterwards a block
    whose terminator reads a register always has a single CFG successor —
    the property φ-removal and split insertion rely on when appending
    copies before the terminator.  φ-nodes must not be present yet. *)

val copy : t -> t
(** Deep copy; the original is never aliased by any mutable field. *)

val in_ssa : t -> bool
(** True if any block carries φ-nodes. *)

val structural_equal : t -> t -> bool
(** Same name, symbols, entry, and per-block labels, φ-nodes, bodies and
    terminators (register-for-register, operand-for-operand).  The mutable
    caches and the register supply are ignored — this is the equality the
    printer/parser round-trip property is stated in. *)

val content_hash : t -> string
(** Hex digest of the routine's structure — exactly what
    {!structural_equal} compares (name, symbols, entry, labels, φ-nodes,
    bodies, terminators; supply watermark and edge caches excluded), so
    [structural_equal a b] implies [content_hash a = content_hash b] and
    a print/parse round trip preserves the hash.  Float payloads are
    canonicalized the way [Instr.equal] identifies them (NaN = NaN,
    +0 = -0).  Keys the serving layer's memo table. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
