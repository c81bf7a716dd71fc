(** The standard optimization pipeline applied before register
    allocation, mirroring "an ILOC routine ... rewritten in terms of a
    particular target register set" after extensive optimization (§5):

    local value numbering → dominator-scoped value numbering →
    dead-code elimination → loop-invariant code motion → (repeat until
    stable, at most 8 rounds).

    The input routine is not modified. *)

val run : Iloc.Cfg.t -> Iloc.Cfg.t
