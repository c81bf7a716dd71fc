(** Dynamic instruction counts.

    The paper instruments the C translation of each ILOC routine to count
    executed loads, stores, copies, load-immediates and add-immediates
    (§5); our interpreter increments these counters directly.  [cycles]
    applies the §5.1 cost model: two cycles per load or store, one cycle
    for everything else. *)

type t

val create : unit -> t
val record : t -> Iloc.Instr.op -> unit
val get : t -> Iloc.Instr.category -> int
val total_instrs : t -> int
val cycles : t -> int

val sub : t -> t -> t
(** Pointwise difference (may be negative), used to isolate spill
    overhead: counts on the standard machine minus counts on the "huge"
    128-register machine. *)

val cycles_signed : t -> int
(** Like [cycles] but meaningful for differences produced by [sub]. *)

val pp : Format.formatter -> t -> unit
