type t = {
  regs : Reg_index.t;
  pmap : int array;
  live_in : Bitset.t array;
  live_out : Bitset.t array;
  ue : Bitset.t array;
  kill : Bitset.t array;
}

(* The worklist fixpoint over the arena's CSR edges, shared by the dense
   and the boundary solver: they differ only in row width. *)
let solve (fl : Iloc.Flat.t) ~nr ~po ~live_in ~live_out ~ue ~kill =
  let nb = Iloc.Flat.n_blocks fl in
  let succ_idx = fl.Iloc.Flat.succ_idx and succ = fl.Iloc.Flat.succ in
  let pred_idx = fl.Iloc.Flat.pred_idx and pred = fl.Iloc.Flat.pred in
  let pos = Array.make nb (-1) in
  Array.iteri (fun i b -> pos.(b) <- i) po;
  let queued = Array.make nb false in
  let q = Worklist.Buckets.create ~keys:(max nb 1) in
  Array.iteri
    (fun i b ->
      Worklist.Buckets.push q ~key:i b;
      queued.(b) <- true)
    po;
  let tmp = Bitset.create nr in
  let continue = ref true in
  while !continue do
    match Worklist.Buckets.pop_min q with
    | None -> continue := false
    | Some b ->
        queued.(b) <- false;
        for i = succ_idx.(b) to succ_idx.(b + 1) - 1 do
          ignore (Bitset.union_into ~dst:live_out.(b) live_in.(succ.(i)))
        done;
        Bitset.clear tmp;
        ignore (Bitset.union_into ~dst:tmp live_out.(b));
        ignore (Bitset.diff_into ~dst:tmp kill.(b));
        ignore (Bitset.union_into ~dst:tmp ue.(b));
        if Bitset.union_into ~dst:live_in.(b) tmp then
          for i = pred_idx.(b) to pred_idx.(b + 1) - 1 do
            let p = pred.(i) in
            if pos.(p) >= 0 && not queued.(p) then begin
              Worklist.Buckets.push q ~key:pos.(p) p;
              queued.(p) <- true
            end
          done
  done

(* Dense liveness over an arena and the φs beside it.  The equations
   treat a φ-node's arguments as used at the end of the matching
   predecessor and its destination as defined at the block's entry
   (Bouchez–Darte–Rastello):

     kill(b)     = instruction defs of b ∪ φ destinations of b
     ue(b)       = upward-exposed instruction uses of b (φ args excluded)
     live_out(b) = ∪_{s ∈ succ(b)} (live_in(s) ∪ φ-args on edge b→s)
     live_in(b)  = ue(b) ∪ (live_out(b) \ kill(b))

   The edge-specific φ-arg term is constant, so it seeds [live_out] and
   the shared worklist [solve] — which only ever grows [live_out] by
   successors' [live_in] — computes the rest.  Without φs these are the
   textbook equations.

   Rows are as wide as the routine's register count, numbered in
   ascending packed order ([Reg.compare] order) by one presence sweep
   over the records and the φs. *)
let compute (fl : Iloc.Flat.t) ~order ~phis =
  let nb = Iloc.Flat.n_blocks fl in
  let code = fl.Iloc.Flat.code in
  let stride = Iloc.Flat.stride in
  let n_ints = Array.length code in
  let each_phi f =
    Array.iter
      (Array.iter (fun (p : Iloc.Flat.phi) ->
           f p.Iloc.Flat.dst;
           List.iter (fun (_, a) -> f a) p.Iloc.Flat.args))
      phis
  in
  let maxp = ref (-1) in
  let o = ref 0 in
  while !o < n_ints do
    for k = Iloc.Flat.f_dst to Iloc.Flat.f_s2 do
      let p = Array.unsafe_get code (!o + k) in
      if p > !maxp then maxp := p
    done;
    o := !o + stride
  done;
  each_phi (fun p -> if p > !maxp then maxp := p);
  let cap = !maxp + 1 in
  let present = Bytes.make (max cap 1) '\000' in
  let mark p =
    if p >= 0 then Bytes.unsafe_set present p '\001'
  in
  let o = ref 0 in
  while !o < n_ints do
    for k = Iloc.Flat.f_dst to Iloc.Flat.f_s2 do
      mark (Array.unsafe_get code (!o + k))
    done;
    o := !o + stride
  done;
  each_phi mark;
  let index = Array.make (max cap 1) (-1) in
  let nr = ref 0 in
  for p = 0 to cap - 1 do
    if Bytes.unsafe_get present p <> '\000' then begin
      index.(p) <- !nr;
      incr nr
    end
  done;
  let nr = !nr in
  let regs = Reg_index.of_presence present cap nr in
  let ue = Array.init nb (fun _ -> Bitset.create nr) in
  let kill = Array.init nb (fun _ -> Bitset.create nr) in
  let live_in = Array.init nb (fun _ -> Bitset.create nr) in
  let live_out = Array.init nb (fun _ -> Bitset.create nr) in
  for b = 0 to nb - 1 do
    let ue_b = ue.(b) and kill_b = kill.(b) in
    if b < Array.length phis then
      Array.iter
        (fun (p : Iloc.Flat.phi) ->
          Bitset.unsafe_add kill_b index.(p.Iloc.Flat.dst);
          List.iter
            (fun (pred, a) -> Bitset.unsafe_add live_out.(pred) index.(a))
            p.Iloc.Flat.args)
        phis.(b);
    for slot = Iloc.Flat.block_first fl b to Iloc.Flat.block_term fl b do
      let o = slot * stride in
      for k = Iloc.Flat.f_s0 to Iloc.Flat.f_s2 do
        let p = Array.unsafe_get code (o + k) in
        if p >= 0 then begin
          let i = Array.unsafe_get index p in
          if not (Bitset.unsafe_mem kill_b i) then Bitset.unsafe_add ue_b i
        end
      done;
      let d = Array.unsafe_get code (o + Iloc.Flat.f_dst) in
      if d >= 0 then Bitset.unsafe_add kill_b (Array.unsafe_get index d)
    done
  done;
  (* Priority worklist, keyed by postorder position: for this backward
     problem a block's successors are (back edges aside) visited first,
     so most blocks settle in one pass.  After the seed sweep a block is
     re-examined only when [live_in] of one of its successors grew — the
     invariant is that any block off the worklist has
     [live_in = ue ∪ (live_out \ kill)] with [live_out] current w.r.t.
     its successors' [live_in].  Unlike a FIFO, the bucket worklist
     always resumes at the pending block earliest in the postorder, so a
     re-queued loop body is reprocessed before work queued behind it;
     the fixpoint is unique, so only convergence speed depends on this
     order.  Unreachable blocks are not in the postorder and keep empty
     sets; edges from them are ignored. *)
  solve fl ~nr ~po:order ~live_in ~live_out ~ue ~kill;
  { regs; pmap = index; live_in; live_out; ue; kill }

let live_out_mem t b r =
  match Reg_index.index_opt t.regs r with
  | Some i -> Bitset.mem t.live_out.(b) i
  | None -> false

module Boundary = struct
  (* Block-boundary liveness over the upward-exposed universe.

     Any register in any [live_in]/[live_out] set is upward-exposed in
     some block (induction over the fixpoint: sets only grow by unioning
     [ue] rows through [live_out \ kill]).  So the dense row width [nr]
     — every register in the routine — is wasted on sets that can only
     ever mention the usually-tiny universe [U] of upward-exposed
     registers: generated million-instruction routines have hundreds of
     thousands of registers but a few thousand members of [U], and dense
     rows would cost gigabytes.  Rows here are [|U|] bits wide; the
     result is exactly [compute]'s sets of the same arena, reindexed. *)
  type nonrec t = {
    uindex : Reg_index.t;  (** dense numbering of [U] only *)
    live_in : Bitset.t array;
    live_out : Bitset.t array;
    ue : Bitset.t array;
    kill : Bitset.t array;  (** per-block kills restricted to [U] *)
  }

  (* Cross-round scratch: spill rounds recompute the boundary from
     scratch, and every working buffer here scales with the routine
     (packed-id-width arrays, |blocks| x |U| slabs).  The previous
     round's buffers are dead the moment the caller recomputes, so a
     [scratch] handed back on each call recycles all of them — the
     [s_prev] result's slabs through [Bitset.slab ?buf].  The rows of
     [s_prev] must no longer be in use when [compute] is called. *)
  type scratch = {
    mutable s_defined : int array;
    mutable s_in_u : Bytes.t;
    mutable s_umap : int array;
    mutable s_prev : t option;
  }

  let scratch () =
    { s_defined = [||]; s_in_u = Bytes.empty; s_umap = [||]; s_prev = None }

  let compute ~order ?scratch (fl : Iloc.Flat.t) =
    let nb = Iloc.Flat.n_blocks fl in
    let code = fl.Iloc.Flat.code in
    let stride = Iloc.Flat.stride in
    let n_ints = Array.length code in
    let maxp = ref (-1) in
    let o = ref 0 in
    while !o < n_ints do
      for k = Iloc.Flat.f_dst to Iloc.Flat.f_s2 do
        let p = Array.unsafe_get code (!o + k) in
        if p > !maxp then maxp := p
      done;
      o := !o + stride
    done;
    let cap = !maxp + 2 in
    let int_buf prev fill =
      match prev with
      | Some a when Array.length a >= cap ->
          Array.fill a 0 cap fill;
          a
      | _ -> Array.make cap fill
    in
    (* Pass 1: members of U — used before any same-block definition.
       [defined] is an epoch array keyed by block id, so there is no
       per-block clearing. *)
    let defined =
      int_buf (Option.map (fun s -> s.s_defined) scratch) (-1)
    in
    let in_u =
      match scratch with
      | Some s when Bytes.length s.s_in_u >= cap ->
          Bytes.fill s.s_in_u 0 cap '\000';
          s.s_in_u
      | _ -> Bytes.make cap '\000'
    in
    let nu = ref 0 in
    for b = 0 to nb - 1 do
      for slot = Iloc.Flat.block_first fl b to Iloc.Flat.block_term fl b do
        let o = slot * stride in
        for k = Iloc.Flat.f_s0 to Iloc.Flat.f_s2 do
          let p = Array.unsafe_get code (o + k) in
          if p >= 0 && Array.unsafe_get defined p <> b
             && Bytes.unsafe_get in_u p = '\000'
          then begin
            Bytes.unsafe_set in_u p '\001';
            incr nu
          end
        done;
        let d = Array.unsafe_get code (o + Iloc.Flat.f_dst) in
        if d >= 0 then Array.unsafe_set defined d b
      done
    done;
    (* Presence sweep enumerates ascending packed order = ascending
       [Reg.compare] order, matching every other register numbering in
       the repo — no member list, no sort. *)
    let uindex = Reg_index.of_presence in_u cap !nu in
    let umap = int_buf (Option.map (fun s -> s.s_umap) scratch) (-1) in
    let next = ref 0 in
    for p = 0 to cap - 1 do
      if Bytes.unsafe_get in_u p <> '\000' then begin
        Array.unsafe_set umap p !next;
        incr next
      end
    done;
    let nr = !nu in
    let prev_slab f =
      Option.bind scratch (fun s -> Option.map f s.s_prev)
    in
    let ue = Bitset.slab ?buf:(prev_slab (fun p -> p.ue)) ~rows:nb ~capacity:nr () in
    let kill = Bitset.slab ?buf:(prev_slab (fun p -> p.kill)) ~rows:nb ~capacity:nr () in
    Array.fill defined 0 cap (-1);
    for b = 0 to nb - 1 do
      let ue_b = ue.(b) and kill_b = kill.(b) in
      for slot = Iloc.Flat.block_first fl b to Iloc.Flat.block_term fl b do
        let o = slot * stride in
        for k = Iloc.Flat.f_s0 to Iloc.Flat.f_s2 do
          let p = Array.unsafe_get code (o + k) in
          if p >= 0 && Array.unsafe_get defined p <> b then
            Bitset.unsafe_add ue_b (Array.unsafe_get umap p)
        done;
        let d = Array.unsafe_get code (o + Iloc.Flat.f_dst) in
        if d >= 0 then begin
          Array.unsafe_set defined d b;
          let ud = Array.unsafe_get umap d in
          if ud >= 0 then Bitset.unsafe_add kill_b ud
        end
      done
    done;
    let live_in =
      Bitset.slab ?buf:(prev_slab (fun p -> p.live_in)) ~rows:nb ~capacity:nr ()
    in
    let live_out =
      Bitset.slab ?buf:(prev_slab (fun p -> p.live_out)) ~rows:nb ~capacity:nr ()
    in
    solve fl ~nr ~po:order ~live_in ~live_out ~ue ~kill;
    let t = { uindex; live_in; live_out; ue; kill } in
    Option.iter
      (fun s ->
        s.s_defined <- defined;
        s.s_in_u <- in_u;
        s.s_umap <- umap;
        s.s_prev <- Some t)
      scratch;
    t

  let live_in t b =
    Bitset.fold (fun i acc -> Reg_index.reg t.uindex i :: acc) t.live_in.(b) []
    |> List.rev

  (* A register outside U is outside every boundary set — [false] here is
     the dense computation's answer, not an approximation. *)
  let live_in_mem t b r =
    match Reg_index.index_opt t.uindex r with
    | Some i -> Bitset.mem t.live_in.(b) i
    | None -> false

  let live_out_mem t b r =
    match Reg_index.index_opt t.uindex r with
    | Some i -> Bitset.mem t.live_out.(b) i
    | None -> false
end
