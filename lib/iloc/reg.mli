(** Registers.

    ILOC code references an unlimited supply of {e virtual} registers before
    allocation.  Every register belongs to one of two classes: integer
    registers (which also hold addresses and booleans) and floating-point
    registers (which hold double-precision values; the paper's target makes
    no single/double distinction once a value is in a register, see §5.1).

    The frame pointer and static-area pointer of the paper are not modeled
    as registers: the opcodes that use them ([Lfp], [Laddr], [Ldro]) take
    them implicitly, which preserves the property the paper relies on —
    their operands are {e always available} — without reserving physical
    registers. *)

type cls = Int | Float

type t = private { id : int; cls : cls }

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** [make id cls] builds a register with explicit id.  Ids are unique per
    routine, across both classes (the class is not encoded in the id). *)
val make : int -> cls -> t

val id : t -> int
val cls : t -> cls
val is_int : t -> bool
val is_float : t -> bool

val cls_equal : cls -> cls -> bool
val cls_to_string : cls -> string

(** Conventional textual form: [r<id>] for integer registers, [f<id>] for
    floating-point registers. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** A supply of fresh registers.  [fresh] never returns an id at or below
    the starting point, so a supply seeded with the maximum id of an
    existing routine extends it safely. *)
module Supply : sig
  type reg := t
  type t

  val create : ?start:int -> unit -> t

  (** Highest id handed out so far (or the seed). *)
  val last : t -> int

  val fresh : t -> cls -> reg
end

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
