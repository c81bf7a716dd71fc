(** Dense numbering of the registers appearing in a routine.

    Several analyses (liveness, interference, live-range naming) need
    registers as small dense integers; this module owns the mapping. *)

type t

val of_cfg : Iloc.Cfg.t -> t
(** Registers in ascending [Reg.compare] order, φ operands included.
    Built by an allocation-free presence sweep, not a [Reg.Set]. *)

val of_flat : Iloc.Flat.t -> t
(** Same numbering as {!of_cfg} of the bridged routine (flat arenas
    carry no φ-nodes, and neither do the routines the allocator hands to
    {!of_cfg}). *)

val of_regs : Iloc.Reg.t list -> t

val of_presence : Bytes.t -> int -> int -> t
(** [of_presence present cap count]: the registers whose packed id [p]
    (= [Reg.hash]) has [present.[p] <> '\000'] for [p < cap], in
    ascending packed order — [count] must equal the number of marked
    bytes.  The list-free constructor behind {!of_cfg}/{!of_flat} for
    callers that already hold a presence sweep. *)


val count : t -> int
val index : t -> Iloc.Reg.t -> int
(** Raises [Not_found] for a register outside the routine. *)

val index_opt : t -> Iloc.Reg.t -> int option
val reg : t -> int -> Iloc.Reg.t
val iter : (int -> Iloc.Reg.t -> unit) -> t -> unit

val packed_map : t -> int array
(** Inverse mapping for flat-form sweeps: an array [m] with
    [m.(Reg.hash r) = index t r] for every indexed register and [-1]
    elsewhere.  Allocated per call — cache it across a phase. *)
