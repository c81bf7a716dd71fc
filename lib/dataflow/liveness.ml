type t = {
  regs : Reg_index.t;
  live_in : Bitset.t array;
  live_out : Bitset.t array;
  ue : Bitset.t array;
  kill : Bitset.t array;
}

(* The worklist fixpoint, shared by every entry point.  [succs_iter]/
   [preds_iter] abstract the edge representation (lists for the
   structured view, CSR for the flat one); everything else — bucket
   order, seed sweep, change propagation — is identical, so the flat
   and structured paths converge to bit-identical sets. *)
let solve ~nb ~nr ~po ~succs_iter ~preds_iter ~live_in ~live_out ~ue ~kill =
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
        succs_iter b (fun s ->
            ignore (Bitset.union_into ~dst:live_out.(b) live_in.(s)));
        Bitset.clear tmp;
        ignore (Bitset.union_into ~dst:tmp live_out.(b));
        ignore (Bitset.diff_into ~dst:tmp kill.(b));
        ignore (Bitset.union_into ~dst:tmp ue.(b));
        if Bitset.union_into ~dst:live_in.(b) tmp then
          preds_iter b (fun p ->
              if pos.(p) >= 0 && not queued.(p) then begin
                Worklist.Buckets.push q ~key:pos.(p) p;
                queued.(p) <- true
              end)
  done

let compute ?order (cfg : Iloc.Cfg.t) =
  if Iloc.Cfg.in_ssa cfg then
    invalid_arg "Liveness.compute: routine is in SSA form";
  let regs = Reg_index.of_cfg cfg in
  let nr = Reg_index.count regs in
  let nb = Iloc.Cfg.n_blocks cfg in
  let ue = Array.init nb (fun _ -> Bitset.create nr) in
  let kill = Array.init nb (fun _ -> Bitset.create nr) in
  Iloc.Cfg.iter_blocks
    (fun b ->
      let ue_b = ue.(b.id) and kill_b = kill.(b.id) in
      Iloc.Block.iter_instrs
        (fun i ->
          List.iter
            (fun u ->
              (* Reg_index indices are < nr by construction. *)
              let ui = Reg_index.index regs u in
              if not (Bitset.unsafe_mem kill_b ui) then Bitset.unsafe_add ue_b ui)
            (Iloc.Instr.uses i);
          List.iter
            (fun d -> Bitset.unsafe_add kill_b (Reg_index.index regs d))
            (Iloc.Instr.defs i))
        b)
    cfg;
  let live_in = Array.init nb (fun _ -> Bitset.create nr) in
  let live_out = Array.init nb (fun _ -> Bitset.create nr) in
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
  let po = match order with Some o -> o | None -> Order.postorder cfg in
  solve ~nb ~nr ~po
    ~succs_iter:(fun b f -> List.iter f (Iloc.Cfg.succs cfg b))
    ~preds_iter:(fun b f -> List.iter f (Iloc.Cfg.preds cfg b))
    ~live_in ~live_out ~ue ~kill;
  { regs; live_in; live_out; ue; kill }

(* φ-aware liveness over an SSA-form routine, for the decoupled
   spill-then-color pipeline.  The equations treat a φ-node's arguments
   as used at the end of the matching predecessor and its destination as
   defined at the block's entry (Bouchez–Darte–Rastello):

     kill(b)     = instruction defs of b ∪ φ destinations of b
     ue(b)       = upward-exposed instruction uses of b (φ args excluded)
     live_out(b) = ∪_{s ∈ succ(b)} (live_in(s) ∪ φ-args on edge b→s)
     live_in(b)  = ue(b) ∪ (live_out(b) \ kill(b))

   The edge-specific φ-arg term is constant, so it is folded into the
   initial [live_out] seed and the shared worklist [solve] — which only
   ever grows [live_out] by successors' [live_in] — computes the rest. *)
let compute_ssa ?order (cfg : Iloc.Cfg.t) =
  let regs = Reg_index.of_cfg cfg in
  let nr = Reg_index.count regs in
  let nb = Iloc.Cfg.n_blocks cfg in
  let ue = Array.init nb (fun _ -> Bitset.create nr) in
  let kill = Array.init nb (fun _ -> Bitset.create nr) in
  let live_in = Array.init nb (fun _ -> Bitset.create nr) in
  let live_out = Array.init nb (fun _ -> Bitset.create nr) in
  Iloc.Cfg.iter_blocks
    (fun b ->
      let ue_b = ue.(b.Iloc.Block.id) and kill_b = kill.(b.Iloc.Block.id) in
      List.iter
        (fun (p : Iloc.Phi.t) ->
          Bitset.unsafe_add kill_b (Reg_index.index regs p.Iloc.Phi.dst);
          List.iter
            (fun (pred, arg) ->
              Bitset.unsafe_add live_out.(pred) (Reg_index.index regs arg))
            p.Iloc.Phi.args)
        b.Iloc.Block.phis;
      Iloc.Block.iter_instrs
        (fun i ->
          List.iter
            (fun u ->
              let ui = Reg_index.index regs u in
              if not (Bitset.unsafe_mem kill_b ui) then Bitset.unsafe_add ue_b ui)
            (Iloc.Instr.uses i);
          List.iter
            (fun d -> Bitset.unsafe_add kill_b (Reg_index.index regs d))
            (Iloc.Instr.defs i))
        b)
    cfg;
  let po = match order with Some o -> o | None -> Order.postorder cfg in
  solve ~nb ~nr ~po
    ~succs_iter:(fun b f -> List.iter f (Iloc.Cfg.succs cfg b))
    ~preds_iter:(fun b f -> List.iter f (Iloc.Cfg.preds cfg b))
    ~live_in ~live_out ~ue ~kill;
  { regs; live_in; live_out; ue; kill }

(* Pointwise register pressure of an SSA routine, per block and class,
   from the boundary rows of {!compute_ssa}: one backward walk per block
   from [live_out] (which includes φ-args of successor edges), noting
   the peak before/after every instruction, plus the block-entry point
   where live-in values and all φ destinations are live at once (the
   entry parallel copy has written every destination before any body
   instruction runs). *)
let max_live_ssa (cfg : Iloc.Cfg.t) (t : t) =
  let nb = Iloc.Cfg.n_blocks cfg in
  let mi = Array.make nb 0 and mf = Array.make nb 0 in
  let nr = Reg_index.count t.regs in
  let is_float = Array.make nr false in
  for i = 0 to nr - 1 do
    is_float.(i) <- Iloc.Reg.is_float (Reg_index.reg t.regs i)
  done;
  Iloc.Cfg.iter_blocks
    (fun b ->
      let id = b.Iloc.Block.id in
      let live = Bitset.create nr in
      ignore (Bitset.union_into ~dst:live t.live_out.(id));
      let ci = ref 0 and cf = ref 0 in
      Bitset.iter (fun i -> if is_float.(i) then incr cf else incr ci) live;
      let note () =
        if !ci > mi.(id) then mi.(id) <- !ci;
        if !cf > mf.(id) then mf.(id) <- !cf
      in
      note ();
      let add i =
        if not (Bitset.mem live i) then begin
          Bitset.add live i;
          if is_float.(i) then incr cf else incr ci
        end
      in
      let remove i =
        if Bitset.mem live i then begin
          Bitset.remove live i;
          if is_float.(i) then decr cf else decr ci
        end
      in
      let instr (i : Iloc.Instr.t) =
        (* At the definition point the destination coexists with
           everything live after the instruction (a dead definition
           still occupies a register there). *)
        List.iter (fun d -> add (Reg_index.index t.regs d)) (Iloc.Instr.defs i);
        note ();
        List.iter
          (fun d -> remove (Reg_index.index t.regs d))
          (Iloc.Instr.defs i);
        List.iter (fun u -> add (Reg_index.index t.regs u)) (Iloc.Instr.uses i);
        note ()
      in
      instr b.Iloc.Block.term;
      List.iter instr (List.rev b.Iloc.Block.body);
      (* Block entry, after the φ parallel copy: live-in ∪ φ dests. *)
      List.iter
        (fun (p : Iloc.Phi.t) ->
          add (Reg_index.index t.regs p.Iloc.Phi.dst))
        b.Iloc.Block.phis;
      note ())
    cfg;
  (mi, mf)

(* CSR edge iteration over a flat arena: no list cells, no closures per
   edge beyond the two allocated here per call. *)
let[@inline] flat_succs_iter (fl : Iloc.Flat.t) b f =
  for i = fl.Iloc.Flat.succ_idx.(b) to fl.Iloc.Flat.succ_idx.(b + 1) - 1 do
    f fl.Iloc.Flat.succ.(i)
  done

let[@inline] flat_preds_iter (fl : Iloc.Flat.t) b f =
  for i = fl.Iloc.Flat.pred_idx.(b) to fl.Iloc.Flat.pred_idx.(b + 1) - 1 do
    f fl.Iloc.Flat.pred.(i)
  done

let to_regs t set =
  Bitset.fold (fun i acc -> Reg_index.reg t.regs i :: acc) set [] |> List.rev

let live_in t b = to_regs t t.live_in.(b)
let live_out t b = to_regs t t.live_out.(b)

let live_in_mem t b r =
  match Reg_index.index_opt t.regs r with
  | Some i -> Bitset.mem t.live_in.(b) i
  | None -> false

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
     result is exactly [compute]'s boundary sets of the bridged routine,
     reindexed. *)
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

  let compute ?order ?scratch (fl : Iloc.Flat.t) =
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
    let po = match order with Some o -> o | None -> Order.postorder_flat fl in
    solve ~nb ~nr ~po ~succs_iter:(flat_succs_iter fl)
      ~preds_iter:(flat_preds_iter fl) ~live_in ~live_out ~ue ~kill;
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
