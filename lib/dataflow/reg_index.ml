type t = { tbl : int Iloc.Reg.Tbl.t; arr : Iloc.Reg.t array }

let of_regs regs =
  let tbl = Iloc.Reg.Tbl.create (List.length regs) in
  let arr = Array.of_list regs in
  Array.iteri (fun i r -> Iloc.Reg.Tbl.replace tbl r i) arr;
  { tbl; arr }

(* Registers packed as [Reg.hash] (2*id + class bit): ascending packed
   order is exactly ascending [Reg.compare] order, so a presence-array
   sweep enumerates registers in the same order [Reg.Set.elements] used
   to, without materializing a set. *)

let of_presence present cap count =
  let arr = Array.make count (Iloc.Reg.make 0 Iloc.Reg.Int) in
  let tbl = Iloc.Reg.Tbl.create count in
  let k = ref 0 in
  for p = 0 to cap - 1 do
    if Bytes.unsafe_get present p <> '\000' then begin
      let r =
        Iloc.Reg.make (p lsr 1)
          (if p land 1 = 0 then Iloc.Reg.Int else Iloc.Reg.Float)
      in
      arr.(!k) <- r;
      Iloc.Reg.Tbl.replace tbl r !k;
      incr k
    end
  done;
  { tbl; arr }

let of_cfg cfg =
  (* Two allocation-free sweeps: the highest packed id, then presence
     marks.  φ-nodes are included — SSA-form clients (value analysis)
     index φ destinations and arguments too. *)
  let mx = ref (-1) in
  let see_max (r : Iloc.Reg.t) =
    let p = Iloc.Reg.hash r in
    if p > !mx then mx := p
  in
  let each_reg f =
    Iloc.Cfg.iter_blocks
      (fun b ->
        List.iter
          (fun (p : Iloc.Phi.t) ->
            f p.Iloc.Phi.dst;
            List.iter (fun (_, r) -> f r) p.Iloc.Phi.args)
          b.Iloc.Block.phis;
        Iloc.Block.iter_instrs
          (fun (i : Iloc.Instr.t) ->
            (match i.Iloc.Instr.dst with Some d -> f d | None -> ());
            Array.iter f i.Iloc.Instr.srcs)
          b)
      cfg
  in
  each_reg see_max;
  let cap = !mx + 1 in
  let present = Bytes.make (max cap 1) '\000' in
  let count = ref 0 in
  each_reg (fun r ->
      let p = Iloc.Reg.hash r in
      if Bytes.unsafe_get present p = '\000' then begin
        Bytes.unsafe_set present p '\001';
        incr count
      end);
  of_presence present cap !count

let of_flat (f : Iloc.Flat.t) =
  let code = f.Iloc.Flat.code in
  let n = Array.length code in
  let stride = Iloc.Flat.stride in
  let mx = ref (-1) in
  let o = ref 0 in
  while !o < n do
    for k = Iloc.Flat.f_dst to Iloc.Flat.f_s2 do
      let p = Array.unsafe_get code (!o + k) in
      if p > !mx then mx := p
    done;
    o := !o + stride
  done;
  let cap = !mx + 1 in
  let present = Bytes.make (max cap 1) '\000' in
  let count = ref 0 in
  let o = ref 0 in
  while !o < n do
    for k = Iloc.Flat.f_dst to Iloc.Flat.f_s2 do
      let p = Array.unsafe_get code (!o + k) in
      if p >= 0 && Bytes.unsafe_get present p = '\000' then begin
        Bytes.unsafe_set present p '\001';
        incr count
      end
    done;
    o := !o + stride
  done;
  of_presence present cap !count

let count t = Array.length t.arr
let index t r = Iloc.Reg.Tbl.find t.tbl r
let index_opt t r = Iloc.Reg.Tbl.find_opt t.tbl r
let reg t i = t.arr.(i)
let iter f t = Array.iteri f t.arr

let packed_map t =
  let mx = Array.fold_left (fun m r -> max m (Iloc.Reg.hash r)) (-1) t.arr in
  let map = Array.make (mx + 2) (-1) in
  Array.iteri (fun i r -> map.(Iloc.Reg.hash r) <- i) t.arr;
  map
