module Reg = Iloc.Reg
module Flat = Iloc.Flat

let load_store_cycles = 2
let remat_cycles = 1

let compute (fl : Flat.t) (loops : Dataflow.Loops.t) (g : Interference.t)
    ~(live_in_iter : int -> (Reg.t -> unit) -> unit) ~tags ~infinite =
  let n = Interference.n_nodes g in
  let costs = Array.make n 0. in
  let pmap = Interference.packed_map g in
  let node r =
    let h = Reg.hash r in
    if h < Array.length pmap then pmap.(h) else -1
  in
  let inst = Bytes.make n '\000' in
  for i = 0 to n - 1 do
    match Reg.Tbl.find_opt tags (Interference.reg g i) with
    | Some tag when Tag.is_inst tag -> Bytes.unsafe_set inst i '\001'
    | _ -> ()
  done;
  (* Futile-spill guard: find ranges confined to a two-instruction window
     of a single block.  Spilling one would keep a register occupied at
     every occurrence anyway, so it cannot relieve pressure.  Positions
     count from the block's first slot, terminator included. *)
  let first_pos = Array.make n max_int and last_pos = Array.make n min_int in
  let home_block = Array.make n (-2) in
  let crosses = Array.make n false in
  let code = fl.Flat.code in
  let remat = float_of_int remat_cycles
  and load_store = float_of_int load_store_cycles in
  let use w p =
    let ui = pmap.(p) in
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
        (* Rematerializable values are never stored (§3.2). *)
        if Bytes.get inst di = '\000' then
          costs.(di) <- costs.(di) +. (load_store *. w)
      end
    done
  done;
  for b = 0 to Flat.n_blocks fl - 1 do
    live_in_iter b (fun r ->
        let ri = node r in
        if ri >= 0 then crosses.(ri) <- true)
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

let phase (ctx : Context.t) =
  let g = Context.graph ctx in
  (* Fetched after coalescing: the context recomputes liveness when the
     coalescer invalidated it, so crossing-block detection sees the
     merged live ranges.  Crossing only asks for set membership, so the
     |U|-compressed boundary rows answer it exactly. *)
  let bl = Context.boundary ctx in
  let fl = Context.flat ctx in
  let uindex = bl.Dataflow.Liveness.Boundary.uindex in
  let live_in_iter b f =
    Dataflow.Bitset.iter
      (fun u -> f (Dataflow.Reg_index.reg uindex u))
      bl.Dataflow.Liveness.Boundary.live_in.(b)
  in
  Context.time ctx Stats.Costs (fun () ->
      compute fl ctx.Context.loops g ~live_in_iter ~tags:ctx.Context.tags
        ~infinite:ctx.Context.infinite)
