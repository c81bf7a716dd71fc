module Reg = Iloc.Reg
module Flat = Iloc.Flat

let load_store_cycles = 2
let remat_cycles = 1

let compute (fl : Flat.t) (loops : Dataflow.Loops.t) (g : Interference.t)
    ~order ~tags ~infinite =
  let n = Interference.n_nodes g in
  let costs = Array.make n 0. in
  let pmap = Interference.packed_map g in
  let inst = Bytes.make n '\000' in
  for i = 0 to n - 1 do
    match Reg.Tbl.find_opt tags (Interference.reg g i) with
    | Some tag when Tag.is_inst tag -> Bytes.unsafe_set inst i '\001'
    | _ -> ()
  done;
  (* Futile-spill guard: find ranges confined to a two-instruction window
     of a single block.  Spilling one would keep a register occupied at
     every occurrence anyway, so it cannot relieve pressure.  Positions
     count from the block's first slot, terminator included.

     A range crosses a block boundary when it occurs in two blocks, or
     when it is live into its one block: its first occurrence there is
     a use (sources are read before the destination is written) and
     liveness reaches the block.  Boundary liveness solves over the
     blocks of [order] only, so an unreachable block's live-in set is
     empty, and a range of one block is live into no other.  [opening]
     records each range's first occurrence in the sweep: ['\001'] a
     definition, ['\002'] a use — for a range of one block, the first in
     that block. *)
  let first_pos = Array.make n max_int and last_pos = Array.make n min_int in
  let home_block = Array.make n (-2) in
  let crosses = Array.make n false in
  let opening = Bytes.make n '\000' in
  let code = fl.Flat.code in
  let remat = float_of_int remat_cycles
  and load_store = float_of_int load_store_cycles in
  let use w p =
    let ui = pmap.(p) in
    if Bytes.get opening ui = '\000' then Bytes.set opening ui '\002';
    let per_use =
      if Bytes.get inst ui <> '\000' then remat else load_store
    in
    costs.(ui) <- costs.(ui) +. (per_use *. w)
  in
  for b = 0 to Flat.n_blocks fl - 1 do
    let w = Dataflow.Loops.weight loops b in
    let first = Flat.block_first fl b in
    for slot = first to Flat.block_term fl b do
      let o = slot * Flat.stride in
      let pos = slot - first in
      for f = Flat.f_dst to Flat.f_s2 do
        let p = code.(o + f) in
        if p >= 0 then begin
          let ri = pmap.(p) in
          if home_block.(ri) = -2 then home_block.(ri) <- b
          else if home_block.(ri) <> b then crosses.(ri) <- true;
          if pos < first_pos.(ri) then first_pos.(ri) <- pos;
          if pos > last_pos.(ri) then last_pos.(ri) <- pos
        end
      done;
      (* One reload (or rematerialization) serves every occurrence of a
         register within a single instruction; uses are charged before
         the definition, as each cost cell's sum is order-sensitive. *)
      let s0 = code.(o + Flat.f_s0)
      and s1 = code.(o + Flat.f_s1)
      and s2 = code.(o + Flat.f_s2) in
      if s0 >= 0 then use w s0;
      if s1 >= 0 && s1 <> s0 then use w s1;
      if s2 >= 0 && s2 <> s0 && s2 <> s1 then use w s2;
      let d = code.(o + Flat.f_dst) in
      if d >= 0 then begin
        let di = pmap.(d) in
        if Bytes.get opening di = '\000' then Bytes.set opening di '\001';
        (* Rematerializable values are never stored (§3.2). *)
        if Bytes.get inst di = '\000' then
          costs.(di) <- costs.(di) +. (load_store *. w)
      end
    done
  done;
  let reachable = Bytes.make (Flat.n_blocks fl) '\000' in
  Array.iter (fun b -> Bytes.set reachable b '\001') order;
  for ri = 0 to n - 1 do
    if
      Bytes.get opening ri = '\002'
      && Bytes.get reachable home_block.(ri) <> '\000'
    then crosses.(ri) <- true
  done;
  let tiny ri =
    (not crosses.(ri))
    && home_block.(ri) >= 0
    && last_pos.(ri) - first_pos.(ri) <= 2
  in
  for i = 0 to n - 1 do
    if Reg.Tbl.mem infinite (Interference.reg g i) || tiny i then
      costs.(i) <- infinity
  done;
  costs

let phase (ctx : Context.t) g =
  Context.time ctx Stats.Costs (fun () ->
      compute (Context.flat ctx) ctx.Context.loops g ~order:ctx.Context.order
        ~tags:ctx.Context.tags ~infinite:ctx.Context.infinite)
