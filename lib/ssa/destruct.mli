(** SSA destruction.

    Replaces every φ-node with copies at the end of each predecessor
    block, sequentialized as a parallel copy (see {!Parallel_copy}).
    Requires critical edges to have been split so every predecessor has a
    unique successor; raises [Invalid_argument] otherwise.

    {!run_colored} is the decoupled SSA pipeline's final phase:
    destruction {e after} coloring, on a routine whose registers are
    already physical.  {!run} is the value-level form the test suite's
    SSA round-trips use; the Chaitin–Briggs renumber phase removes
    φ-nodes itself while forming live ranges (§4.1 steps 5–6). *)

type colored_stats = {
  coalesced : int;
      (** φ-edge moves dropped because source and destination received
          the same color — the φ-congruence coalescing the chordal
          allocator's biased color choice sets up *)
  cycle_temps : int;  (** cycles broken with a free register *)
  cycle_slots : int;
      (** cycles broken through a fresh spill slot because every color
          of the class was busy across the edge *)
}

val run_colored :
  temp_for:(pred:int -> Iloc.Reg.cls -> Iloc.Reg.t option) ->
  fresh_slot:(unit -> int) ->
  Iloc.Cfg.t ->
  colored_stats
(** [run_colored ~temp_for ~fresh_slot cfg] lowers the φ-nodes of a
    {e colored} SSA routine (every register physical) in place: per
    predecessor edge the moves [dst-color ← arg-color] form a parallel
    copy over registers, identity moves are dropped (coalescing on the
    φ-congruence class), and the rest is sequentialized with
    {!Parallel_copy.sequentialize}.  A cycle needs a scratch register:
    [temp_for ~pred cls] must return a physical register of [cls] that
    is dead across the edge leaving [pred], or [None] when all colors
    are busy — then the cycle is broken through a fresh spill slot
    instead ([spill]/[reload] on [fresh_slot ()]), which is always
    sound.  Requires split critical edges, like {!run}. *)

val fault_swap_seq : int ref
(** Test-only planted fault: when set to [n > 0], the first
    sequentialized parallel copy containing an adjacent {e dependent}
    pair of instructions at or after position [n-1] (one reads or writes
    a register or frame slot the other writes) has that pair swapped —
    breaking exactly the ordering obligation sequentialization exists to
    meet, while never touching commuting pairs whose swap would be a
    semantic no-op.  At most one swap is planted per {!run_colored}
    call.  The static verifier must name the faulty block and
    instruction.  Library code never sets this; restore to [0] after
    use. *)

val run : Iloc.Cfg.t -> Iloc.Cfg.t
(** {!run_colored} on a copy, with a fresh virtual register as every
    cycle's scratch; the input is not mutated. *)
