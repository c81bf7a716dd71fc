module Reg = Iloc.Reg

type t = {
  mode : Mode.t;
  machine : Machine.t;
  k : Iloc.Reg.cls -> int;
  tags : Tag.t Reg.Tbl.t;
  infinite : unit Reg.Tbl.t;
  loops : Dataflow.Loops.t;
  order : int array;
  stats : Stats.t;
  mutable round : int;
  mutable split_pairs : (Reg.t * Reg.t) list;
  mutable coalesced : int;
  mutable flat : Iloc.Flat.t;
  mutable mark : int array;
  mutable mark_epoch : int;
  build_scratch : Interference.scratch;
  boundary_scratch : Dataflow.Liveness.Boundary.scratch;
}

let create ~mode ~machine ~loops ~order ~tags ~split_pairs ~stats flat =
  {
    mode;
    machine;
    k = Machine.k_for machine;
    tags;
    infinite = Reg.Tbl.create 16;
    loops;
    order;
    stats;
    round = 0;
    split_pairs;
    coalesced = 0;
    flat;
    mark = [||];
    mark_epoch = 0;
    build_scratch = Interference.create_scratch ();
    boundary_scratch = Dataflow.Liveness.Boundary.scratch ();
  }

let set_round t r = t.round <- r
let time t phase f = Stats.time t.stats ~round:t.round phase f
let count t counter n = Stats.count t.stats ~round:t.round counter n
let flat t = t.flat

(* Epoch-stamped scratch: "clearing" is an epoch bump, so phases that
   need a transient per-node mark (the Briggs union count, select's
   forbidden colors) pay zero allocation and zero O(n) clears after the
   array reaches graph size. *)
let fresh_marks t n =
  if Array.length t.mark < n then
    t.mark <- Array.make (max n (2 * Array.length t.mark)) 0;
  t.mark_epoch <- t.mark_epoch + 1;
  (t.mark, t.mark_epoch)
