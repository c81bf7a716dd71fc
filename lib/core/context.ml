module Reg = Iloc.Reg

type t = {
  mode : Mode.t;
  machine : Machine.t;
  k : Iloc.Reg.cls -> int;
  tags : Tag.t Reg.Tbl.t;
  infinite : unit Reg.Tbl.t;
  loops : Dataflow.Loops.t;
  stats : Stats.t;
  mutable round : int;
  mutable split_pairs : (Reg.t * Reg.t) list;
  mutable coalesced : int;
  mutable order : int array option;
  mutable boundary : Dataflow.Liveness.Boundary.t option;
  mutable lr_index : Dataflow.Reg_index.t option;
  mutable graph : Interference.t option;
  mutable copies : (Reg.t * Reg.t) list option;
  mutable flat : Iloc.Flat.t;
  mutable mark : int array;
  mutable mark_epoch : int;
  (* Cross-round scratch for the per-round recomputations: the graph
     builds' emission buffer and the boundary solver's
     working buffers.  Both survive every invalidation — their previous
     contents are dead by then. *)
  build_scratch : Interference.scratch;
  mutable boundary_scratch : Dataflow.Liveness.Boundary.scratch option;
}

let create ~mode ~machine ~loops ~tags ~split_pairs ~stats flat =
  {
    mode;
    machine;
    k = Machine.k_for machine;
    tags;
    infinite = Reg.Tbl.create 16;
    loops;
    stats;
    round = 0;
    split_pairs;
    coalesced = 0;
    order = None;
    boundary = None;
    lr_index = None;
    graph = None;
    copies = None;
    flat;
    mark = [||];
    mark_epoch = 0;
    build_scratch = Interference.create_scratch ();
    boundary_scratch = None;
  }

let set_round t r = t.round <- r
let time t phase f = Stats.time t.stats ~round:t.round phase f
let count t counter n = Stats.count t.stats ~round:t.round counter n

let block_order t =
  match t.order with
  | Some o -> o
  | None ->
      let o = Dataflow.Order.postorder_flat t.flat in
      t.order <- Some o;
      o

let flat t = t.flat

let boundary t =
  match t.boundary with
  | Some bl -> bl
  | None ->
      let order = block_order t in
      let fl = t.flat in
      let scratch =
        match t.boundary_scratch with
        | Some s -> s
        | None ->
            let s = Dataflow.Liveness.Boundary.scratch () in
            t.boundary_scratch <- Some s;
            s
      in
      let bl =
        time t Stats.Liveness (fun () ->
            Dataflow.Liveness.Boundary.compute ~order ~scratch fl)
      in
      count t Stats.Liveness_runs 1;
      t.boundary <- Some bl;
      bl

let lr_index t =
  match t.lr_index with
  | Some ri -> ri
  | None ->
      (* The compaction pass: post-renumber register names are sparse in
         id space (live-range representatives survive unioning), so the
         coloring pipeline indexes nodes through this dense live-range
         numbering rather than anything id-width. *)
      let ri = Dataflow.Reg_index.of_flat t.flat in
      t.lr_index <- Some ri;
      ri

let graph t =
  match t.graph with
  | Some g -> g
  | None ->
      (* Boundary rows feed the build directly: dense liveness (rows as
         wide as the live-range count, per block) is never
         materialized. *)
      let regs = lr_index t in
      let fl = t.flat in
      let bl = boundary t in
      let on_pairs ~emitted ~dropped =
        count t Stats.Build_pairs emitted;
        count t Stats.Build_dupes dropped
      in
      let g =
        time t Stats.Build (fun () ->
            Interference.build_flat_boundary ~scratch:t.build_scratch
              ~on_pairs ~k:t.k regs fl bl)
      in
      count t Stats.Full_builds 1;
      t.graph <- Some g;
      g

let invalidate_liveness t =
  t.boundary <- None;
  (* Merged ranges drop out of the renamed arena, and with them out of
     the live-range numbering. *)
  t.lr_index <- None

let invalidate t =
  t.boundary <- None;
  t.graph <- None;
  t.order <- None;
  t.copies <- None;
  t.lr_index <- None

(* Epoch-stamped scratch: "clearing" is an epoch bump, so phases that
   need a transient per-node mark (the Briggs union count, select's
   forbidden colors) pay zero allocation and zero O(n) clears after the
   array reaches graph size. *)
let fresh_marks t n =
  if Array.length t.mark < n then
    t.mark <- Array.make (max n (2 * Array.length t.mark)) 0;
  t.mark_epoch <- t.mark_epoch + 1;
  (t.mark, t.mark_epoch)
