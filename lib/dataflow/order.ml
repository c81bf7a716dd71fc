(** Depth-first orders over a routine's blocks.

    Only blocks reachable from the entry appear in the returned arrays;
    [dfs_postorder] also returns the visited set so clients can skip dead
    blocks. *)

let dfs_postorder ~n ~entry ~succs =
  let seen = Array.make n false in
  let order = ref [] in
  (* Explicit stack of (block, successors not yet explored): the naive
     recursion is one frame per block on a path, and million-instruction
     routines hold paths far beyond the OS stack.  Taking successors off
     the front of each saved list reproduces the recursive visit order
     exactly, so the postorder (and everything seeded from it) is
     unchanged. *)
  let stack = ref [] in
  let push b =
    if not seen.(b) then begin
      seen.(b) <- true;
      stack := (b, succs b) :: !stack
    end
  in
  push entry;
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | (b, []) :: rest ->
        order := b :: !order;
        stack := rest
    | (b, s :: more) :: rest ->
        stack := (b, more) :: rest;
        push s
  done;
  (* [order] currently holds reverse postorder. *)
  (Array.of_list (List.rev !order), seen)

let postorder_flat (f : Iloc.Flat.t) =
  fst
    (dfs_postorder ~n:(Iloc.Flat.n_blocks f) ~entry:f.Iloc.Flat.entry
       ~succs:(Iloc.Flat.succs_list f))
