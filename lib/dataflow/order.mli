(** Depth-first orders over a routine's blocks.

    Only blocks reachable from the entry appear in the returned arrays;
    {!dfs_postorder} also returns the visited set so clients can skip
    dead blocks. *)

val postorder_flat : Iloc.Flat.t -> int array
(** Postorder over a flat arena's CSR edges, successors visited in
    ascending block order. *)

val dfs_postorder :
  n:int -> entry:int -> succs:(int -> int list) -> int array * bool array
(** Generic core over any graph shape (the dominator computation runs
    it directly): the postorder sequence and the visited set. *)
