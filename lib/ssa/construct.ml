module Cfg = Iloc.Cfg
module Block = Iloc.Block
module Instr = Iloc.Instr
module Phi = Iloc.Phi
module Reg = Iloc.Reg

let run (cfg : Cfg.t) =
  if Cfg.in_ssa cfg then invalid_arg "Ssa.Construct.run: already in SSA";
  let cfg = Cfg.copy cfg in
  let nb = Cfg.n_blocks cfg in
  (* Pruning liveness runs on the flat arena form: the input is not yet
     in SSA, and the flat sweep allocates no per-instruction garbage —
     on large routines this dominates renumber's footprint.  The result
     is bit-identical to the structured computation. *)
  let fl = Iloc.Flat.of_routine cfg in
  let dom = Dataflow.Dominance.compute cfg in
  (* Boundary rows suffice: φ pruning only ever asks live_in membership,
     and boundary sets agree with the dense ones on every register.  At
     10⁵-instruction routines the |U|-wide rows are what keep this pass
     in megabytes rather than hundreds of them. *)
  let live =
    Dataflow.Liveness.Boundary.compute ~order:(Dataflow.Dominance.postorder dom)
      fl
  in
  let df = Dataflow.Dominance.frontiers cfg dom in
  (* Definition blocks per register. *)
  let def_blocks : int list Reg.Tbl.t = Reg.Tbl.create 64 in
  Cfg.iter_instrs
    (fun b i ->
      match i.Instr.dst with
      | None -> ()
      | Some d ->
          let old = try Reg.Tbl.find def_blocks d with Not_found -> [] in
          Reg.Tbl.replace def_blocks d (b.id :: old))
    cfg;
  (* φ insertion: DF+ of the def blocks, pruned by liveness.  The φ is
     created with the original register as a placeholder destination and
     arguments; renaming rewrites both. *)
  let idf_state = Dataflow.Dominance.Idf.create ~n:nb in
  Reg.Tbl.iter
    (fun v blocks ->
      let idf = Dataflow.Dominance.Idf.compute idf_state df blocks in
      Dataflow.Bitset.iter
        (fun b ->
          if Dataflow.Liveness.Boundary.live_in_mem live b v then begin
            let blk = Cfg.block cfg b in
            let args = List.map (fun p -> (p, v)) (Cfg.preds cfg b) in
            blk.phis <- Phi.make v args :: blk.phis
          end)
        idf)
    def_blocks;
  (* [def_blocks] is iterated in hash-table order, so without this sort
     the φ list of a block — and with it the order fresh names are
     handed out during renaming — would depend on Reg.Tbl internals.
     Canonicalize to ascending original destination; one φ per original
     per block, so the order is total.  The flat-native renumbering
     produces φs in exactly this order by construction. *)
  Cfg.iter_blocks
    (fun b ->
      match b.phis with
      | [] | [ _ ] -> ()
      | ps ->
          b.phis <-
            List.sort
              (fun (p : Phi.t) (q : Phi.t) -> Reg.compare p.dst q.dst)
              ps)
    cfg;
  (* Renaming: one walk over the dominator tree with a stack of current
     names per original register. *)
  let stacks : Reg.t list ref Reg.Tbl.t = Reg.Tbl.create 64 in
  let stack_of v =
    (* [find], not [find_opt]: this lookup runs once per operand and the
       option box it would allocate per hit is measurable at 10^4
       instructions. *)
    try Reg.Tbl.find stacks v
    with Not_found ->
      let s = ref [] in
      Reg.Tbl.replace stacks v s;
      s
  in
  let top ~where v =
    match !(stack_of v) with
    | n :: _ -> n
    | [] ->
        invalid_arg
          (Printf.sprintf "Ssa.Construct: %s used before definition (%s)"
             (Reg.to_string v) where)
  in
  let fresh v = Cfg.fresh_reg cfg (Reg.cls v) in
  (* Remember which original register each φ stands for, keyed by the
     renamed φ so the successor-argument pass can find it. *)
  let phi_orig : Reg.t Reg.Tbl.t = Reg.Tbl.create 16 in
  let rec rename b =
    let blk = Cfg.block cfg b in
    let pushed = ref [] in
    let push v n =
      let s = stack_of v in
      s := n :: !s;
      pushed := v :: !pushed
    in
    List.iter
      (fun (p : Phi.t) ->
        let orig = p.dst in
        let n = fresh orig in
        Reg.Tbl.replace phi_orig n orig;
        p.dst <- n;
        push orig n)
      blk.phis;
    Block.map_instrs
      (fun i ->
        (* Sources renamed against the stacks as they stand, then the
           destination freshened — one record per instruction, not one
           per step. *)
        let srcs = Array.map (fun u -> top ~where:blk.label u) i.Instr.srcs in
        match i.Instr.dst with
        | None -> { i with Instr.srcs = srcs }
        | Some d ->
            let n = fresh d in
            push d n;
            { i with Instr.srcs = srcs; dst = Some n })
      blk;
    List.iter
      (fun s ->
        let sblk = Cfg.block cfg s in
        List.iter
          (fun (p : Phi.t) ->
            let orig =
              (* successor not renamed yet: dst is original *)
              try Reg.Tbl.find phi_orig p.dst with Not_found -> p.dst
            in
            Phi.set_arg p ~pred:b (top ~where:sblk.label orig))
          sblk.phis)
      (Cfg.succs cfg b);
    List.iter rename dom.children.(b);
    List.iter (fun v -> let s = stack_of v in s := List.tl !s) !pushed
  in
  rename cfg.entry;
  (* [Phi.set_arg] re-adds each argument at the front, so after renaming
     the argument list order is an artifact of pred processing order.
     Restore ascending predecessor order — the order the φ was created
     with — so every downstream walk (renumber's split recording, SSA
     destruction) sees a canonical list. *)
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun (p : Phi.t) ->
          match p.args with
          | [] | [ _ ] -> ()
          | args ->
              p.args <-
                List.sort (fun (i, _) (j, _) -> Int.compare i j) args)
        b.phis)
    cfg;
  cfg

(* The same construction on the flat arena, where SSA exists as side
   arrays over the input's slots rather than as a routine: [slot_def]/
   [slot_use] give each operand's value, a φ CSR carries the pruned
   φ-nodes, and values are plain counters whose packed register follows
   from the supply watermark.  The canonical orderings (φs per block
   ascending original register, φ arguments ascending predecessor) and
   the visit order that hands out fresh names are the structured pass's,
   so value [v]'s register is the one {!run} gives it. *)
type values = {
  n_values : int;
  value_reg : Dataflow.Int_vec.t;
  slot_def : int array;
  slot_use : int array;
  phi_idx : int array;
  phi_def : int array;
  phi_arg_idx : int array;
  phi_args : int array;
}

let run_flat ~(dom : Dataflow.Dominance.t) (fl0 : Iloc.Flat.t) =
  let nb = Iloc.Flat.n_blocks fl0 in
  let ns = Iloc.Flat.n_instrs fl0 in
  let code = fl0.Iloc.Flat.code in
  let stride = Iloc.Flat.stride in
  let base = fl0.Iloc.Flat.supply_last in
  (* Packed-register capacity: one past the highest packed operand. *)
  let cap =
    let mx = ref (-1) in
    let o = ref 0 in
    let n_ints = Array.length code in
    while !o < n_ints do
      for k = Iloc.Flat.f_dst to Iloc.Flat.f_s2 do
        let p = Array.unsafe_get code (!o + k) in
        if p > !mx then mx := p
      done;
      o := !o + stride
    done;
    !mx + 2
  in
  (* Step 1: boundary liveness for φ pruning (membership answers equal
     the dense rows') and dominance frontiers over the caller's tree. *)
  let bl =
    Dataflow.Liveness.Boundary.compute
      ~order:(Dataflow.Dominance.postorder dom)
      fl0
  in
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
    let d = Array.unsafe_get code ((s * stride) + Iloc.Flat.f_dst) in
    if d >= 0 then def_cnt.(d) <- def_cnt.(d) + 1
  done;
  let def_idx = Array.make (cap + 1) 0 in
  for p = 0 to cap - 1 do
    def_idx.(p + 1) <- def_idx.(p) + def_cnt.(p)
  done;
  let def_blk = Array.make (max 1 def_idx.(cap)) 0 in
  let fill = Array.copy def_idx in
  for b = 0 to nb - 1 do
    for s = Iloc.Flat.block_first fl0 b to Iloc.Flat.block_term fl0 b do
      let d = Array.unsafe_get code ((s * stride) + Iloc.Flat.f_dst) in
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
  let pred_idx = fl0.Iloc.Flat.pred_idx and pred = fl0.Iloc.Flat.pred in
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
        (Printf.sprintf "Ssa.Construct.run_flat: %s used before definition"
           (Reg.to_string (Iloc.Flat.reg_of_packed p)));
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
  let succ_idx = fl0.Iloc.Flat.succ_idx and succ = fl0.Iloc.Flat.succ in
  (* Explicit enter/leave stack: [2b] enters block b, [2b+1] leaves it. *)
  let walk = Dataflow.Int_vec.create ~cap:64 () in
  Dataflow.Int_vec.push walk (2 * fl0.Iloc.Flat.entry);
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
      for s = Iloc.Flat.block_first fl0 b to Iloc.Flat.block_term fl0 b do
        let o = s * stride in
        (* Sources against the stacks as they stand, then the
           destination freshened. *)
        for k = 0 to 2 do
          let p = Array.unsafe_get code (o + Iloc.Flat.f_s0 + k) in
          if p >= 0 then slot_src_val.((3 * s) + k) <- top p
        done;
        let d = Array.unsafe_get code (o + Iloc.Flat.f_dst) in
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
  {
    n_values = !next_val;
    value_reg = val_packed;
    slot_def = slot_dst_val;
    slot_use = slot_src_val;
    phi_idx;
    phi_def = phi_dst;
    phi_arg_idx;
    phi_args;
  }
