(** Target register sets.

    §5.1: "our target machine is defined to have sixteen integer registers
    and sixteen floating-point registers" and spill-cost measurement uses a
    hypothetical "huge" machine with 128 registers per class whose
    allocation is assumed nearly perfect.  The table-driven register set of
    the paper is mirrored by [make]. *)

type t = { name : string; k_int : int; k_float : int }

val make : name:string -> k_int:int -> k_float:int -> t

(** 16 integer + 16 floating-point registers. *)
val standard : t

(** 128 + 128; the nearly-spill-free baseline of §5.2. *)
val huge : t

val k_for : t -> Iloc.Reg.cls -> int
