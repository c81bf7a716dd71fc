(** Parser for the textual ILOC concrete syntax emitted by {!Printer}.

    The format is line based.  Comments run from [;] or [#] to end of line.
    A routine is a [routine <name>] header, zero or more [data]
    declarations, and one or more labeled blocks whose last instruction is
    a terminator.  See the project README for a grammar and examples. *)

exception Error of { line : int; msg : string }

val routine : string -> Cfg.t
(** Parse exactly one routine. *)

val program : string -> Cfg.t list
(** Parse a sequence of routines. *)

val instr : string -> Instr.t
(** Parse a single instruction line (used by tests). *)

val lex : string -> (int * string list) list
(** The non-blank lines of a source text as (1-based line number, tokens)
    pairs.  A token is a maximal run of characters other than space and
    tab; [;] or [#] ends a line's text. *)

val routine_of_lines : (int * string list) list -> Cfg.t
(** [routine src] is [routine_of_lines (lex src)]; exposed so tests can
    run the grammar on another tokenizer's lines. *)
