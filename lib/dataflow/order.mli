(** Depth-first orders over a {!Iloc.Cfg.t}.

    Only blocks reachable from the entry appear in the returned arrays;
    {!reachable} exposes the visited set so clients can skip dead
    blocks. *)

val postorder : Iloc.Cfg.t -> int array

val postorder_flat : Iloc.Flat.t -> int array
(** Same traversal over a flat arena's CSR edges; identical to
    {!postorder} of the bridged routine. *)

val reachable : Iloc.Cfg.t -> bool array

val dfs_postorder :
  n:int -> entry:int -> succs:(int -> int list) -> int array * bool array
(** Generic core over any graph shape (the dominator computation runs
    it directly): the postorder sequence and the visited set. *)
