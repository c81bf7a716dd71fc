(** Lowering MF to ILOC.

    The translation is the one an optimizing FORTRAN front end would
    produce just before register allocation:

    - every scalar variable lives in a dedicated virtual register for the
      whole routine (multi-valued live ranges arise exactly as in the
      paper: constant initializations, loop updates and merges);
    - each array's base address is materialized once in the entry block
      with [laddr] — a long-lived never-killed value, the classic
      rematerialization candidate;
    - array subscripts affine in a [for] variable are strength-reduced
      into walking pointers stepped at the loop latch — the
      post-optimization pointer shape of the paper's Figure 1;
    - reads of read-only arrays at constant subscripts become [ldro]
      (loads from known constant locations, §3);
    - expression evaluation uses fresh temporaries, [for] bounds are
      evaluated once, and logical operators are non-short-circuit. *)

exception Error of string

val compile : string -> Iloc.Cfg.t
(** Parse, typecheck ({!Typecheck.program}) and lower MF source text;
    the result passes {!Iloc.Validate.routine}. *)
