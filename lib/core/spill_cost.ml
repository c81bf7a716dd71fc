module Reg = Iloc.Reg
module Instr = Iloc.Instr

let load_store_cycles = 2
let remat_cycles = 1

let compute (cfg : Iloc.Cfg.t) (loops : Dataflow.Loops.t) (g : Interference.t)
    ~(live_in_iter : int -> (Reg.t -> unit) -> unit) ~tags ~infinite =
  let n = Interference.n_nodes g in
  let costs = Array.make n 0. in
  let tag_of r = Option.value (Reg.Tbl.find_opt tags r) ~default:Tag.Bottom in
  (* Futile-spill guard: find ranges confined to a two-instruction window
     of a single block.  Spilling one would keep a register occupied at
     every occurrence anyway, so it cannot relieve pressure. *)
  let first_pos = Array.make n max_int and last_pos = Array.make n min_int in
  let home_block = Array.make n (-2) in
  let crosses = Array.make n false in
  Iloc.Cfg.iter_blocks
    (fun b ->
      let pos = ref 0 in
      Iloc.Block.iter_instrs
        (fun i ->
          List.iter
            (fun r ->
              let ri = Interference.index g r in
              if home_block.(ri) = -2 then home_block.(ri) <- b.id
              else if home_block.(ri) <> b.id then crosses.(ri) <- true;
              if !pos < first_pos.(ri) then first_pos.(ri) <- !pos;
              if !pos > last_pos.(ri) then last_pos.(ri) <- !pos)
            (Instr.defs i @ Instr.uses i);
          incr pos)
        b)
    cfg;
  for b = 0 to Iloc.Cfg.n_blocks cfg - 1 do
    live_in_iter b (fun r ->
        match Dataflow.Reg_index.index_opt g.Interference.regs r with
        | Some ri -> crosses.(ri) <- true
        | None -> ())
  done;
  let tiny ri =
    (not crosses.(ri))
    && home_block.(ri) >= 0
    && last_pos.(ri) - first_pos.(ri) <= 2
  in
  Iloc.Cfg.iter_blocks
    (fun b ->
      let w = Dataflow.Loops.weight loops b.id in
      Iloc.Block.iter_instrs
        (fun i ->
          (* One reload (or rematerialization) serves every occurrence of
             a register within a single instruction. *)
          let uses = List.sort_uniq Reg.compare (Instr.uses i) in
          List.iter
            (fun u ->
              let ui = Interference.index g u in
              let per_use =
                if Tag.is_inst (tag_of u) then float_of_int remat_cycles
                else float_of_int load_store_cycles
              in
              costs.(ui) <- costs.(ui) +. (per_use *. w))
            uses;
          List.iter
            (fun d ->
              let di = Interference.index g d in
              (* Rematerializable values are never stored (§3.2). *)
              if not (Tag.is_inst (tag_of d)) then
                costs.(di) <-
                  costs.(di) +. (float_of_int load_store_cycles *. w))
            (Instr.defs i))
        b)
    cfg;
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
  let uindex = bl.Dataflow.Liveness.Boundary.uindex in
  let live_in_iter b f =
    Dataflow.Bitset.iter
      (fun u -> f (Dataflow.Reg_index.reg uindex u))
      bl.Dataflow.Liveness.Boundary.live_in.(b)
  in
  Context.time ctx Stats.Costs (fun () ->
      compute ctx.Context.cfg ctx.Context.loops g ~live_in_iter
        ~tags:ctx.Context.tags ~infinite:ctx.Context.infinite)
