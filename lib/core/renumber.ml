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
   materialized.  SSA never exists as a routine here — it exists as
   {!Ssa.Construct.run_flat}'s side arrays over the input arena's slots:
   [slot_dst_val]/[slot_src_val] give each operand's SSA value, a φ CSR
   carries the pruned φ-nodes, and values are plain counters whose
   packed register follows from the supply watermark.  Equality with the structured reference renumber
   (test/reference.ml, through an SSA routine) is structural, not lucky:
   the canonical orderings (φs per block ascending original register, φ
   arguments ascending predecessor, split blocks ascending) are exactly
   the ones the reference produces, the value numbering coincides because
   both paths hand out fresh registers in the same visit order, and the
   remaining analyses (IDF, boundary liveness, tag propagation) are
   order-independent fixpoints. *)
let run_flat mode ~dom (fl0 : Flat.t) =
  let nb = Flat.n_blocks fl0 in
  let ns = Flat.n_instrs fl0 in
  let code = fl0.Flat.code in
  let stride = Flat.stride in
  let base = fl0.Flat.supply_last in
  let pred_idx = fl0.Flat.pred_idx and pred = fl0.Flat.pred in
  (* Steps 1-3: liveness, pruned φ placement and renaming. *)
  let sv = Ssa.Construct.run_flat ~dom fl0 in
  let slot_dst_val = sv.Ssa.Construct.slot_def in
  let slot_src_val = sv.Ssa.Construct.slot_use in
  let val_packed = sv.Ssa.Construct.value_reg in
  let phi_idx = sv.Ssa.Construct.phi_idx in
  let phi_dst = sv.Ssa.Construct.phi_def in
  let phi_arg_idx = sv.Ssa.Construct.phi_arg_idx in
  let phi_args = sv.Ssa.Construct.phi_args in
  let n = sv.Ssa.Construct.n_values in
  (* Step 4: tag propagation on the SSA value graph. *)
  let tags =
    match mode with
    | Mode.No_remat | Mode.Ssa_no_remat -> Array.make n Tag.Bottom
    | Mode.Chaitin_remat | Mode.Briggs_remat | Mode.Briggs_remat_phi_splits
    | Mode.Briggs_split_all_loops | Mode.Briggs_split_outer_loops
    | Mode.Briggs_split_unreferenced | Mode.Ssa_remat ->
        Remat_analysis.run_flat fl0 sv
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
  for b = 0 to nb - 1 do
    let plo = pred_idx.(b) in
    for i = phi_idx.(b) to phi_idx.(b + 1) - 1 do
      let vr = phi_dst.(i) in
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
     order so scratch registers number identically to the reference's;
     each block's moves are replaced by their sequence. *)
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
        by_pred.(prd) <- seq
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
      by_pred.(b);
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
