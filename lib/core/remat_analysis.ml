module Values = Ssa.Values

(* Solve the tag equations over an in-edge CSR: [in_edges.(in_idx.(v)
   .. in_idx.(v+1)-1)] are the values v's tag is the meet of (copy
   source, φ arguments), and values with no in-edges keep their initial
   tag.  [tags] is updated in place and residual [Top]s lowered to
   [Bottom].  Shared by the structured pass and [run_flat] below — the
   transfer is monotone over a height-2 lattice, so
   the fixpoint is unique and independent of how either caller orders
   values or edges. *)
let fixpoint tags ~in_idx ~in_edges =
  let n = Array.length tags in
  let n_edges = in_idx.(n) in
  let out_deg = Array.make (n + 1) 0 in
  for e = 0 to n_edges - 1 do
    let src = in_edges.(e) in
    out_deg.(src) <- out_deg.(src) + 1
  done;
  let out_idx = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    out_idx.(v + 1) <- out_idx.(v) + out_deg.(v)
  done;
  let out_edges = Array.make (max 1 n_edges) 0 in
  let fill = Array.copy out_idx in
  for v = 0 to n - 1 do
    for e = in_idx.(v) to in_idx.(v + 1) - 1 do
      let src = in_edges.(e) in
      out_edges.(fill.(src)) <- v;
      fill.(src) <- fill.(src) + 1
    done
  done;
  let evaluate v =
    if in_idx.(v) = in_idx.(v + 1) then tags.(v)
    else begin
      let acc = ref Tag.Top in
      for e = in_idx.(v) to in_idx.(v + 1) - 1 do
        acc := Tag.meet !acc tags.(in_edges.(e))
      done;
      !acc
    end
  in
  (* Chaotic iteration: an unboxed vector with a read cursor replaces
     the cell-per-push queue. *)
  let work = Dataflow.Int_vec.create ~cap:(2 * n) () in
  for v = 0 to n - 1 do
    Dataflow.Int_vec.push work v
  done;
  let cursor = ref 0 in
  while !cursor < Dataflow.Int_vec.length work do
    let v = Dataflow.Int_vec.get work !cursor in
    incr cursor;
    let nv = evaluate v in
    if not (Tag.equal nv tags.(v)) then begin
      (* The lattice has height 2, so each value enters the queue O(1)
         times and propagation is linear in the number of SSA edges. *)
      assert (Tag.leq nv tags.(v));
      tags.(v) <- nv;
      for e = out_idx.(v) to out_idx.(v + 1) - 1 do
        Dataflow.Int_vec.push work out_edges.(e)
      done
    end
  done;
  for v = 0 to n - 1 do
    match tags.(v) with Tag.Top -> tags.(v) <- Tag.Bottom | _ -> ()
  done

let run (_cfg : Iloc.Cfg.t) (vals : Values.t) =
  let n = Values.count vals in
  let tags = Array.make n Tag.Top in
  (* Initial tags from the defining instruction. *)
  for v = 0 to n - 1 do
    match Values.def vals v with
    | Values.Def_instr { instr; _ } -> tags.(v) <- Tag.initial instr.op
    | Values.Def_phi _ -> tags.(v) <- Tag.Top
  done;
  (* Sparse SSA edges, CSR in both directions: inputs.(v) are the values
     v's tag is the meet of (copy source, φ arguments), consumers the
     transpose.  Built once into int arrays — the fixpoint below
     re-reads the input lists on every evaluation, so allocating them
     per visit (the previous list-based form) made this pass one of
     renumbering's biggest minor-heap spenders. *)
  let in_deg = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    match Values.def vals v with
    | Values.Def_instr { instr = { op = Iloc.Instr.Copy; _ }; _ } ->
        in_deg.(v) <- 1
    | Values.Def_instr _ -> ()
    | Values.Def_phi { phi; _ } -> in_deg.(v) <- List.length phi.args
  done;
  let in_idx = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    in_idx.(v + 1) <- in_idx.(v) + in_deg.(v)
  done;
  let n_edges = in_idx.(n) in
  let in_edges = Array.make (max 1 n_edges) 0 in
  let out_deg = Array.make (n + 1) 0 in
  let fill = Array.copy in_idx in
  for v = 0 to n - 1 do
    let edge src =
      in_edges.(fill.(v)) <- src;
      fill.(v) <- fill.(v) + 1;
      out_deg.(src) <- out_deg.(src) + 1
    in
    match Values.def vals v with
    | Values.Def_instr { instr = { op = Iloc.Instr.Copy; srcs; _ }; _ } ->
        edge (Values.index vals srcs.(0))
    | Values.Def_instr _ -> ()
    | Values.Def_phi { phi; _ } ->
        List.iter (fun (_, a) -> edge (Values.index vals a)) phi.args
  done;
  fixpoint tags ~in_idx ~in_edges;
  tags

(* The same propagation over flat SSA construction's side arrays: a
   slot's value starts from its opcode, a φ's at [Top], and the in-edges
   are copy sources and φ arguments. *)
let run_flat (fl : Iloc.Flat.t) (sv : Ssa.Construct.values) =
  let module Flat = Iloc.Flat in
  let n = sv.Ssa.Construct.n_values in
  let ns = Flat.n_instrs fl in
  let code = fl.Flat.code and stride = Flat.stride in
  let slot_dst_val = sv.Ssa.Construct.slot_def in
  let slot_src_val = sv.Ssa.Construct.slot_use in
  let phi_dst = sv.Ssa.Construct.phi_def in
  let phi_arg_idx = sv.Ssa.Construct.phi_arg_idx in
  let phi_args = sv.Ssa.Construct.phi_args in
  let phi_idx = sv.Ssa.Construct.phi_idx in
  let nphi = phi_idx.(Array.length phi_idx - 1) in
  let tags = Array.make n Tag.Top in
  for s = 0 to ns - 1 do
    let v = slot_dst_val.(s) in
    if v >= 0 then begin
      let t = Array.unsafe_get code ((s * stride) + Flat.f_tag) in
      tags.(v) <-
        (if Flat.Tag.is_copy t then Tag.Top
         else if Flat.Tag.never_killed t then Tag.Inst (Flat.decode_op fl s)
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
  fixpoint tags ~in_idx ~in_edges;
  tags
