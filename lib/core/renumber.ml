module Flat = Iloc.Flat
module Instr = Iloc.Instr
module Reg = Iloc.Reg
module Union_find = Dataflow.Union_find

type flat_result = {
  fl : Iloc.Flat.t;
  f_tags : Tag.t Iloc.Reg.Tbl.t;
  f_split_pairs : (Iloc.Reg.t * Iloc.Reg.t) list;
  f_n_values : int;
  f_n_live_ranges : int;
}

(* The six steps, routine-in/routine-out on the flat arena: no
   structured instruction (or φ-node, or per-operand cell) is ever
   materialized.  SSA never exists as a routine here — it exists as side
   arrays over the input arena's slots: [slot_dst_val]/[slot_src_val]
   give each operand's SSA value, a φ CSR carries the pruned φ-nodes,
   and values are plain counters whose packed register follows from the
   supply watermark.  Equality with the structured reference renumber
   (test/reference.ml, through an SSA routine) is structural, not lucky:
   the canonical orderings (φs per block ascending original register, φ
   arguments ascending predecessor, split blocks ascending) are exactly
   the ones the reference produces, the value numbering coincides because
   both paths hand out fresh registers in the same visit order, and the
   remaining analyses (IDF, boundary liveness, tag propagation) are
   order-independent fixpoints. *)
let run_flat mode (fl0 : Flat.t) =
  let nb = Flat.n_blocks fl0 in
  let ns = Flat.n_instrs fl0 in
  let code = fl0.Flat.code in
  let stride = Flat.stride in
  let base = fl0.Flat.supply_last in
  (* Packed-register capacity: one past the highest packed operand. *)
  let cap =
    let mx = ref (-1) in
    let o = ref 0 in
    let n_ints = Array.length code in
    while !o < n_ints do
      for k = Flat.f_dst to Flat.f_s2 do
        let p = Array.unsafe_get code (!o + k) in
        if p > !mx then mx := p
      done;
      o := !o + stride
    done;
    !mx + 2
  in
  (* Step 1: boundary liveness for φ pruning (membership answers equal
     the dense rows'), dominator tree, dominance frontiers. *)
  let bl = Dataflow.Liveness.Boundary.compute fl0 in
  let dom = Dataflow.Dominance.compute_flat fl0 in
  let df = Dataflow.Dominance.frontiers_flat fl0 dom in
  let umap = Dataflow.Reg_index.packed_map bl.Dataflow.Liveness.Boundary.uindex in
  let ulen = Array.length umap in
  let live_in_mem b p =
    p < ulen
    && (let u = Array.unsafe_get umap p in
        u >= 0 && Dataflow.Bitset.mem bl.Dataflow.Liveness.Boundary.live_in.(b) u)
  in
  (* Definition blocks per packed register, CSR in slot order (duplicate
     blocks are fine: IDF seeds dedup). *)
  let def_cnt = Array.make cap 0 in
  for s = 0 to ns - 1 do
    let d = Array.unsafe_get code ((s * stride) + Flat.f_dst) in
    if d >= 0 then def_cnt.(d) <- def_cnt.(d) + 1
  done;
  let def_idx = Array.make (cap + 1) 0 in
  for p = 0 to cap - 1 do
    def_idx.(p + 1) <- def_idx.(p) + def_cnt.(p)
  done;
  let def_blk = Array.make (max 1 def_idx.(cap)) 0 in
  let fill = Array.copy def_idx in
  for b = 0 to nb - 1 do
    for s = Flat.block_first fl0 b to Flat.block_term fl0 b do
      let d = Array.unsafe_get code ((s * stride) + Flat.f_dst) in
      if d >= 0 then begin
        def_blk.(fill.(d)) <- b;
        fill.(d) <- fill.(d) + 1
      end
    done
  done;
  (* Step 2: pruned φ placement.  Registers ascend in packed order =
     [Reg.compare] order, and each register's pruned DF+ is scanned in
     ascending block order, so the stable counting sort below leaves
     each block's φs ascending by original register — the canonical
     order of the structured pass. *)
  let phi_ps = Dataflow.Int_vec.create () in
  let phi_bs = Dataflow.Int_vec.create () in
  let idf_state = Dataflow.Dominance.Idf.create ~n:nb in
  for p = 0 to cap - 1 do
    if def_cnt.(p) > 0 then begin
      let idf =
        Dataflow.Dominance.Idf.compute_slice idf_state df def_blk
          ~lo:def_idx.(p) ~hi:def_idx.(p + 1)
      in
      Dataflow.Bitset.iter
        (fun b ->
          if live_in_mem b p then begin
            Dataflow.Int_vec.push phi_ps p;
            Dataflow.Int_vec.push phi_bs b
          end)
        idf
    end
  done;
  let nphi = Dataflow.Int_vec.length phi_ps in
  let phi_cnt = Array.make nb 0 in
  for i = 0 to nphi - 1 do
    let b = Dataflow.Int_vec.get phi_bs i in
    phi_cnt.(b) <- phi_cnt.(b) + 1
  done;
  let phi_idx = Array.make (nb + 1) 0 in
  for b = 0 to nb - 1 do
    phi_idx.(b + 1) <- phi_idx.(b) + phi_cnt.(b)
  done;
  let phi_orig = Array.make (max 1 nphi) 0 in
  let phi_blk = Array.make (max 1 nphi) 0 in
  let fill = Array.copy phi_idx in
  for i = 0 to nphi - 1 do
    let b = Dataflow.Int_vec.get phi_bs i in
    phi_orig.(fill.(b)) <- Dataflow.Int_vec.get phi_ps i;
    phi_blk.(fill.(b)) <- b;
    fill.(b) <- fill.(b) + 1
  done;
  let pred_idx = fl0.Flat.pred_idx and pred = fl0.Flat.pred in
  let phi_arg_idx = Array.make (nphi + 1) 0 in
  for i = 0 to nphi - 1 do
    let b = phi_blk.(i) in
    phi_arg_idx.(i + 1) <- phi_arg_idx.(i) + (pred_idx.(b + 1) - pred_idx.(b))
  done;
  let phi_args = Array.make (max 1 phi_arg_idx.(nphi)) (-1) in
  let phi_dst = Array.make (max 1 nphi) (-1) in
  (* Step 3: renaming over the dominator tree.  Name stacks are linked
     lists in a shared node pool; [pushed] logs pushes so leaving a
     block pops to its watermark.  Fresh value [v] is packed register
     [base + 1 + v] of the original's class — the numbering
     [Ssa.Values] recovers on the structured path. *)
  let stack_top = Array.make cap (-1) in
  let node_val = Dataflow.Int_vec.create ~cap:(ns / 2) () in
  let node_next = Dataflow.Int_vec.create ~cap:(ns / 2) () in
  let pushed = Dataflow.Int_vec.create ~cap:(ns / 2) () in
  let push p v =
    Dataflow.Int_vec.push node_val v;
    Dataflow.Int_vec.push node_next stack_top.(p);
    stack_top.(p) <- Dataflow.Int_vec.length node_val - 1;
    Dataflow.Int_vec.push pushed p
  in
  let top p =
    let t = stack_top.(p) in
    if t < 0 then
      invalid_arg
        (Printf.sprintf "Renumber.run_flat: %s used before definition"
           (Reg.to_string (Flat.reg_of_packed p)));
    Dataflow.Int_vec.get node_val t
  in
  let next_val = ref 0 in
  let val_packed = Dataflow.Int_vec.create ~cap:(ns / 2) () in
  let fresh p =
    let v = !next_val in
    incr next_val;
    Dataflow.Int_vec.push val_packed ((2 * (base + 1 + v)) lor (p land 1));
    v
  in
  let slot_dst_val = Array.make ns (-1) in
  let slot_src_val = Array.make (3 * ns) (-1) in
  (* Dominator-tree children as CSR so the walk pushes them reversed
     without per-block list churn. *)
  let child_idx = Array.make (nb + 1) 0 in
  for b = 0 to nb - 1 do
    child_idx.(b + 1) <- child_idx.(b) + List.length dom.Dataflow.Dominance.children.(b)
  done;
  let child_arr = Array.make (max 1 child_idx.(nb)) 0 in
  let fill = Array.copy child_idx in
  for b = 0 to nb - 1 do
    List.iter
      (fun c ->
        child_arr.(fill.(b)) <- c;
        fill.(b) <- fill.(b) + 1)
      dom.Dataflow.Dominance.children.(b)
  done;
  let watermark = Array.make nb 0 in
  let succ_idx = fl0.Flat.succ_idx and succ = fl0.Flat.succ in
  (* Explicit enter/leave stack: [2b] enters block b, [2b+1] leaves it. *)
  let walk = Dataflow.Int_vec.create ~cap:64 () in
  Dataflow.Int_vec.push walk (2 * fl0.Flat.entry);
  while Dataflow.Int_vec.length walk > 0 do
    let x = Dataflow.Int_vec.pop walk in
    let b = x lsr 1 in
    if x land 1 = 1 then
      (* Leave: pop the names this block pushed. *)
      while Dataflow.Int_vec.length pushed > watermark.(b) do
        let p = Dataflow.Int_vec.pop pushed in
        stack_top.(p) <- Dataflow.Int_vec.get node_next stack_top.(p)
      done
    else begin
      watermark.(b) <- Dataflow.Int_vec.length pushed;
      for i = phi_idx.(b) to phi_idx.(b + 1) - 1 do
        let p = phi_orig.(i) in
        let v = fresh p in
        phi_dst.(i) <- v;
        push p v
      done;
      for s = Flat.block_first fl0 b to Flat.block_term fl0 b do
        let o = s * stride in
        (* Sources against the stacks as they stand, then the
           destination freshened. *)
        for k = 0 to 2 do
          let p = Array.unsafe_get code (o + Flat.f_s0 + k) in
          if p >= 0 then slot_src_val.((3 * s) + k) <- top p
        done;
        let d = Array.unsafe_get code (o + Flat.f_dst) in
        if d >= 0 then begin
          let v = fresh d in
          push d v;
          slot_dst_val.(s) <- v
        end
      done;
      (* φ arguments of the successors: this block's position among the
         successor's CSR predecessors is the argument slot. *)
      for e = succ_idx.(b) to succ_idx.(b + 1) - 1 do
        let sb = succ.(e) in
        if phi_idx.(sb + 1) > phi_idx.(sb) then begin
          let plo = pred_idx.(sb) in
          let j = ref (-1) in
          for q = plo to pred_idx.(sb + 1) - 1 do
            if pred.(q) = b then j := q - plo
          done;
          for i = phi_idx.(sb) to phi_idx.(sb + 1) - 1 do
            phi_args.(phi_arg_idx.(i) + !j) <- top phi_orig.(i)
          done
        end
      done;
      Dataflow.Int_vec.push walk ((2 * b) lor 1);
      for c = child_idx.(b + 1) - 1 downto child_idx.(b) do
        Dataflow.Int_vec.push walk (2 * child_arr.(c))
      done
    end
  done;
  let n = !next_val in
  (* Step 4: tag propagation on the SSA value graph (copy edges + φ
     edges), via the shared order-independent fixpoint. *)
  let tags =
    match mode with
    | Mode.No_remat | Mode.Ssa_no_remat -> Array.make n Tag.Bottom
    | Mode.Chaitin_remat | Mode.Briggs_remat | Mode.Briggs_remat_phi_splits
    | Mode.Briggs_split_all_loops | Mode.Briggs_split_outer_loops
    | Mode.Briggs_split_unreferenced | Mode.Ssa_remat ->
        let tags = Array.make n Tag.Top in
        for s = 0 to ns - 1 do
          let v = slot_dst_val.(s) in
          if v >= 0 then begin
            let t = Array.unsafe_get code ((s * stride) + Flat.f_tag) in
            tags.(v) <-
              (if Flat.Tag.is_copy t then Tag.Top
               else if Flat.Tag.never_killed t then Tag.Inst (Flat.decode_op fl0 s)
               else Tag.Bottom)
          end
        done;
        let in_deg = Array.make (n + 1) 0 in
        for s = 0 to ns - 1 do
          let v = slot_dst_val.(s) in
          if v >= 0 && Flat.Tag.is_copy code.((s * stride) + Flat.f_tag) then
            in_deg.(v) <- 1
        done;
        for i = 0 to nphi - 1 do
          in_deg.(phi_dst.(i)) <- phi_arg_idx.(i + 1) - phi_arg_idx.(i)
        done;
        let in_idx = Array.make (n + 1) 0 in
        for v = 0 to n - 1 do
          in_idx.(v + 1) <- in_idx.(v) + in_deg.(v)
        done;
        let in_edges = Array.make (max 1 in_idx.(n)) 0 in
        for s = 0 to ns - 1 do
          let v = slot_dst_val.(s) in
          if v >= 0 && Flat.Tag.is_copy code.((s * stride) + Flat.f_tag) then
            in_edges.(in_idx.(v)) <- slot_src_val.(3 * s)
        done;
        for i = 0 to nphi - 1 do
          let lo = phi_arg_idx.(i) in
          Array.blit phi_args lo in_edges in_idx.(phi_dst.(i))
            (phi_arg_idx.(i + 1) - lo)
        done;
        Remat_analysis.fixpoint tags ~in_idx ~in_edges;
        tags
  in
  let uf = Union_find.create n in
  let both_inst_equal a b =
    match (tags.(a), tags.(b)) with
    | Tag.Inst i, Tag.Inst j -> Instr.remat_equal i j
    | _ -> false
  in
  (* Step 5: union copies joining values with identical inst tags, in
     block/slot order — union-by-rank representatives depend on the
     union sequence, so this order is part of the contract with the
     reference. *)
  (match mode with
  | Mode.Briggs_remat | Mode.Briggs_remat_phi_splits
  | Mode.Briggs_split_all_loops | Mode.Briggs_split_outer_loops
  | Mode.Briggs_split_unreferenced | Mode.Ssa_remat ->
      for s = 0 to ns - 1 do
        let v = slot_dst_val.(s) in
        if v >= 0 && Flat.Tag.is_copy code.((s * stride) + Flat.f_tag) then begin
          let si = slot_src_val.(3 * s) in
          if both_inst_equal v si then ignore (Union_find.union uf v si)
        end
      done
  | Mode.No_remat | Mode.Chaitin_remat | Mode.Ssa_no_remat -> ());
  (* Step 6: φ operands — blocks ascending, φs ascending original
     register, arguments ascending predecessor: the structured pass's
     canonical order. *)
  let pending = Dataflow.Int_vec.create () in
  for i = 0 to nphi - 1 do
    let b = phi_blk.(i) in
    let vr = phi_dst.(i) in
    let plo = pred_idx.(b) in
    for j = 0 to pred_idx.(b + 1) - plo - 1 do
      let va = phi_args.(phi_arg_idx.(i) + j) in
      let merge =
        match mode with
        | Mode.No_remat | Mode.Chaitin_remat | Mode.Ssa_no_remat -> true
        | Mode.Briggs_remat | Mode.Briggs_split_all_loops
        | Mode.Briggs_split_outer_loops | Mode.Briggs_split_unreferenced
        | Mode.Ssa_remat ->
            Tag.equal tags.(vr) tags.(va)
        | Mode.Briggs_remat_phi_splits -> both_inst_equal vr va
      in
      if merge then ignore (Union_find.union uf vr va)
      else begin
        Dataflow.Int_vec.push pending pred.(plo + j);
        Dataflow.Int_vec.push pending vr;
        Dataflow.Int_vec.push pending va
      end
    done
  done;
  let n_live_ranges = Union_find.n_classes uf in
  let rep_packed =
    Array.init n (fun v ->
        Dataflow.Int_vec.get val_packed (Union_find.find uf v))
  in
  let tags_out : Tag.t Reg.Tbl.t = Reg.Tbl.create 64 in
  for v = 0 to n - 1 do
    let r = Flat.reg_of_packed rep_packed.(v) in
    let old = try Reg.Tbl.find tags_out r with Not_found -> Tag.Top in
    Reg.Tbl.replace tags_out r (Tag.meet old tags.(v))
  done;
  (* Splits grouped per predecessor, sequentialized in ascending block
     order so scratch registers number identically to the reference's. *)
  let by_pred : (Reg.t * Reg.t) list array = Array.make nb [] in
  let k = ref 0 in
  while !k < Dataflow.Int_vec.length pending do
    let prd = Dataflow.Int_vec.get pending !k in
    let vr = Dataflow.Int_vec.get pending (!k + 1) in
    let va = Dataflow.Int_vec.get pending (!k + 2) in
    k := !k + 3;
    let d = rep_packed.(vr) and s = rep_packed.(va) in
    if d <> s then
      by_pred.(prd) <-
        (Flat.reg_of_packed d, Flat.reg_of_packed s) :: by_pred.(prd)
  done;
  let next_id = ref (base + n) in
  let temp cls =
    incr next_id;
    Reg.make !next_id cls
  in
  let seq_by_block : (Reg.t * Reg.t) list array = Array.make nb [] in
  let split_pairs = ref [] in
  for prd = 0 to nb - 1 do
    match by_pred.(prd) with
    | [] -> ()
    | moves ->
        let moves =
          List.sort_uniq
            (fun (d1, s1) (d2, s2) ->
              match Reg.compare d1 d2 with 0 -> Reg.compare s1 s2 | c -> c)
            moves
        in
        let seq = Ssa.Parallel_copy.sequentialize moves ~temp in
        List.iter
          (fun (d, s) ->
            if not (Reg.Tbl.mem tags_out d) then
              Reg.Tbl.replace tags_out d
                (Option.value (Reg.Tbl.find_opt tags_out s) ~default:Tag.Bottom))
          seq;
        List.iter (fun pair -> split_pairs := pair :: !split_pairs) seq;
        seq_by_block.(prd) <- seq
  done;
  (* Materialize: re-emit the arena with operands renamed to live-range
     representatives, self-copies dropped, split copies before each
     terminator.  [ex] fields pass through verbatim, so every pool stays
     shared with the input arena. *)
  let bld = Flat.Splice.create fl0 in
  for b = 0 to nb - 1 do
    let term = Flat.block_term fl0 b in
    let emit_renamed s ~skip_self =
      let o = s * stride in
      let t = Array.unsafe_get code (o + Flat.f_tag) in
      let map k =
        let v = slot_src_val.((3 * s) + k) in
        if v < 0 then Flat.none else rep_packed.(v)
      in
      let s0 = map 0 and s1 = map 1 and s2 = map 2 in
      let dv = slot_dst_val.(s) in
      let d = if dv < 0 then Flat.none else rep_packed.(dv) in
      if not (skip_self && Flat.Tag.is_copy t && d >= 0 && d = s0) then
        Flat.Splice.emit bld ~tag:t ~dst:d ~s0 ~s1 ~s2
          ~ex:(Array.unsafe_get code (o + Flat.f_ex))
    in
    for s = Flat.block_first fl0 b to term - 1 do
      emit_renamed s ~skip_self:true
    done;
    List.iter
      (fun (d, s) ->
        Flat.Splice.emit bld ~tag:Flat.Tag.copy ~dst:(Flat.packed_of_reg d)
          ~s0:(Flat.packed_of_reg s) ~s1:Flat.none ~s2:Flat.none ~ex:0)
      seq_by_block.(b);
    emit_renamed term ~skip_self:false;
    Flat.Splice.close_block bld
  done;
  {
    fl = Flat.Splice.finish bld ~supply_last:!next_id;
    f_tags = tags_out;
    f_split_pairs = List.rev !split_pairs;
    f_n_values = n;
    f_n_live_ranges = n_live_ranges;
  }
