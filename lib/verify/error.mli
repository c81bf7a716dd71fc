(** Verification errors.

    Every rejection names the offending place in the {e allocated}
    routine — block label and instruction index, with the
    {!Iloc.Validate} convention that index [n] over an [n]-instruction
    body designates the terminator — so a failed verification pinpoints
    the exact instruction whose operand carries the wrong value, reads
    the wrong slot, or rematerializes the wrong expression. *)

type kind =
  | Unsupported
      (** the source routine is outside the checker's domain — it holds
          a φ-function or spill code ({!Check.source_gate}); nothing is
          proved either way.  The allocator refuses such a source, so
          only a direct caller of {!Check.routine} meets this kind *)
  | Structure
      (** the allocated routine's shape cannot be mapped back onto the
          input: a φ-function, unknown entry label, a branch whose
          resolved target disagrees with the source terminator, a
          non-[jmp] terminator in an allocator-inserted block *)
  | Unmatched
      (** instruction alignment failed: an output instruction is
          neither allocator-inserted (copy, spill, reload,
          rematerialization) nor structurally equal to the next source
          instruction, or a source instruction has no counterpart *)
  | Wrong_value
      (** a use reads a location the dataflow cannot prove to hold the
          source operand's value — the translation-validation core *)
  | Over_k  (** a register id at or above the machine's [k] survives *)

type t = {
  where : string;  (** [routine] or [routine/label], for display *)
  block : string option;  (** offending output block's label, if known *)
  index : int option;
      (** instruction position in the output block: [0 .. n-1] over the
          body, [n] for the terminator *)
  kind : kind;
  what : string;
}

val routine_err : string -> kind -> string -> t
val block_err : string -> label:string -> kind -> string -> t
val instr_err : string -> label:string -> index:int -> kind -> string -> t
val is_unsupported : t -> bool
val kind_to_string : kind -> string

val to_string : t -> string
(** ["routine/label#3: [wrong-value] message"], mirroring
    {!Iloc.Validate.error_to_string}. *)
