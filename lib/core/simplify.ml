module Reg = Iloc.Reg
module Worklist = Dataflow.Worklist

let run (g : Interference.t) ~k ~costs =
  let n = Interference.n_nodes g in
  let deg = Array.init n (Interference.degree g) in
  (* Merged-away nodes take no part in coloring: mark them removed from
     the start and never push them. *)
  let removed = Array.init n (fun i -> not (Interference.alive g i)) in
  let queued = Array.make n false in
  (* Each node's color count, read once: [remove] consults it on every
     neighbor visit. *)
  let k_of = Array.init n (fun i -> k (Reg.cls (Interference.reg g i))) in
  let trivial = Queue.create () in
  (* Constrained nodes go into a lazy min-heap keyed exactly like the
     former whole-graph rescan's preference — cost/degree ascending,
     then degree descending, then index ascending.  Costs are fixed and
     degrees only fall, so metrics only grow: a stored entry is a lower
     bound for its node's current key, and a popped entry whose recorded
     degree is stale is simply re-filed at the current key.  The first
     up-to-date pop is therefore the exact node the rescan would pick,
     at O(log n) instead of O(n).  The one way a key can shrink is a
     degree reaching zero (the metric collapses to 0 by convention);
     [remove] files a fresh exact entry at that moment, which only
     matters when a zero [k] keeps such a node out of the trivial
     queue. *)
  let metric i =
    if deg.(i) = 0 then 0. else costs.(i) /. float_of_int deg.(i)
  in
  let heap = Worklist.Heap.create ~cap:n () in
  for i = 0 to n - 1 do
    if not removed.(i) then
      if deg.(i) < k_of.(i) then begin
        Queue.add i trivial;
        queued.(i) <- true
      end
      else Worklist.Heap.push heap ~metric:(metric i) ~deg:deg.(i) i
  done;
  let stack = ref [] in
  let remaining = ref (Interference.n_alive g) in
  let remove i =
    removed.(i) <- true;
    decr remaining;
    stack := i :: !stack;
    Interference.iter_neighbors
      (fun nb ->
        if not removed.(nb) then begin
          deg.(nb) <- deg.(nb) - 1;
          if deg.(nb) < k_of.(nb) && not queued.(nb) then begin
            Queue.add nb trivial;
            queued.(nb) <- true
          end
          else if deg.(nb) = 0 && not queued.(nb) then
            Worklist.Heap.push heap ~metric:0. ~deg:0 nb
        end)
      g i
  in
  (* Every node that is neither removed nor in the trivial queue keeps
     at least one heap entry, so the heap cannot run dry while
     constrained nodes remain. *)
  let rec pop_candidate () =
    match Worklist.Heap.pop heap with
    | None -> assert false
    | Some (_, d, i) ->
        if removed.(i) then pop_candidate ()
        else if d <> deg.(i) then begin
          Worklist.Heap.push heap ~metric:(metric i) ~deg:deg.(i) i;
          pop_candidate ()
        end
        else i
  in
  while !remaining > 0 do
    if not (Queue.is_empty trivial) then begin
      let i = Queue.pop trivial in
      if not removed.(i) then remove i
    end
    else
      (* All remaining nodes are constrained: pick the spill candidate
         minimizing cost/degree and push it optimistically. *)
      remove (pop_candidate ())
  done;
  !stack

let phase (ctx : Context.t) g ~costs =
  Context.time ctx Stats.Simplify (fun () -> run g ~k:ctx.Context.k ~costs)
