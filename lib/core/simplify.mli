(** Simplify: ordering the nodes for coloring (§2).

    Repeatedly removes nodes of degree < k and pushes them on a stack;
    when only high-degree nodes remain it picks the spill candidate
    minimizing Chaitin's metric (spill cost divided by current degree) and
    — this is Briggs' {e optimistic} twist — pushes the candidate on the
    stack as well instead of spilling immediately.  Select later discovers
    whether the candidate actually receives a color.

    Nodes merged away by coalescing ([Interference.alive g i = false])
    never appear in the order.

    Degree-< k nodes drain through a FIFO (its pop order is observable:
    it fixes the coloring order), and spill candidates sit in a lazy
    min-heap ({!Dataflow.Worklist.Heap}) keyed by (cost/degree, degree
    descending, index) — the rescan that made each candidate pick O(n)
    is gone, but the node chosen, and hence the whole stack, is
    identical. *)

val run :
  Interference.t -> k:(Iloc.Reg.cls -> int) -> costs:float array -> int list
(** The returned list is the coloring order: its head is the node select
    must color first (the last node removed from the graph). *)

val phase : Context.t -> Interference.t -> costs:float array -> int list
(** {!run} on the round's graph and the context's machine, timed as
    [Simplify]. *)
