(** A machine-independent ILOC interpreter.

    The paper translates allocated ILOC to instrumented C, compiles it and
    runs the result to obtain dynamic instruction counts (§5, Figure 4).
    We interpret ILOC directly instead; the measurement semantics are the
    same and the pipeline stays inside one process.

    The interpreter is deliberately strict: reading an uninitialized
    register or memory cell, a class mismatch (e.g. a float arriving where
    an integer is expected), an out-of-bounds address, or division by zero
    raises {!Runtime_error}.  Strictness is what makes the allocator
    correctness property tests bite — broken spill code rarely produces a
    quiet wrong answer. *)

type value = I of int | F of float

exception Runtime_error of string

type outcome = {
  return : value option;
  prints : value list;  (** in program order *)
  counts : Counts.t;
  memory : (string * value option array) list;
      (** final contents of every static symbol *)
}

val value_equal : value -> value -> bool
val pp_value : Format.formatter -> value -> unit

val run : ?fuel:int -> Iloc.Cfg.t -> outcome
(** Execute from the entry block until [ret].  [fuel] bounds the number of
    executed instructions (default 50 million); exhausting it raises
    {!Runtime_error}.  The routine must not be in SSA form. *)

val outcome_equal : outcome -> outcome -> bool
(** Observational equality: same return value, same prints, same final
    memory.  Dynamic counts are intentionally ignored — that is the part
    allocation is allowed to change. *)
