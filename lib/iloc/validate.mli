(** IR well-formedness checks.

    [routine] re-checks every invariant the constructors enforce (operand
    arity and register classes, terminator placement, label resolution)
    so that code mutated in place by the allocator can be re-validated,
    and adds whole-routine checks no constructor can see:

    - symbol references resolve, and [ldro] only reads read-only symbols
      (otherwise its never-killed tag would be unsound);
    - every use is definitely assigned on all paths from the entry
      (unreachable blocks are ignored);
    - with [~ssa:true]: each register has a unique definition and every
      φ-node has exactly one argument per predecessor. *)

type error = {
  where : string;  (** ["routine"] or ["routine/label"], for display *)
  block : string option;  (** the offending block's label, when known *)
  index : int option;
      (** instruction position inside the block: [0 .. n-1] over the
          body, [n] for the terminator ([None] for block- or
          routine-level errors, e.g. φ-node or edge problems) — this is
          what lets fuzz buckets and repro reports point at the exact
          instruction *)
  what : string;
}

val error_to_string : error -> string
(** ["routine/label#3: message"]; the [#index] part appears only when the
    error is attached to an instruction. *)

val routine : ?ssa:bool -> Cfg.t -> (unit, error list) result

