(** Storage locations of the allocated routine.

    The checker's abstract states are keyed by the places the allocator
    may park a value: a physical register, or a spill slot in the
    per-routine frame area ({!Iloc.Instr.Spill} / {!Iloc.Instr.Reload}
    operands).  Rematerialization sequences have no location of their
    own — they recreate a value {e into} a register, so they appear as
    facts attached to a [Reg] location. *)

type t = Reg of Iloc.Reg.t | Slot of int

val equal : t -> t -> bool

module Map : Map.S with type key = t
