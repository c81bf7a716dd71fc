(** Translation of ILOC to instrumented C — the paper's Figure 4.

    "After allocation, each ILOC routine is translated into a complete C
    routine ... By inserting appropriate instrumentation during the
    translation to C, we are able to collect accurate, dynamic
    measurements" (§5).  This module performs that translation: every
    virtual or physical register becomes a C variable, static data becomes
    a typed memory array, each ILOC instruction becomes one C statement
    followed by a counter increment for its category, and the emitted
    [main] prints the routine's observable behaviour (prints, return
    value) followed by the dynamic counts.

    The interpreter ({!Sim.Interp}) is the measurement tool used by the
    benchmark harness; this emitter exists to close the loop with the
    paper's original methodology and to cross-check the interpreter — the
    test suite compiles emitted C with the system compiler when one is
    available and compares outputs.

    Caveats, both irrelevant for valid routines: OCaml integers are
    63-bit while C [long] is 64-bit, so programs relying on overflow wrap
    differently; and C cannot reproduce the interpreter's strictness
    (reads of uninitialized storage are defined as zero here, fatal
    there). *)

val routine_to_string : Iloc.Cfg.t -> string
(** A complete, self-contained C program. *)
