(** Textual ILOC output.

    Emits the concrete syntax accepted by {!Parser}; printing, reparsing
    and reprinting is a fixpoint for any routine not in SSA form
    (φ-nodes have no concrete syntax; they exist only inside the
    allocator, which raises [Invalid_argument] here). *)

val routine_to_string : Cfg.t -> string
