(* The coloring core as it stood before the worklist/heap optimization,
   kept verbatim as an executable specification.  Property tests assert
   the production phases produce byte-identical results (same simplify
   stack, same colors, same coalesced routine), and the scale benchmark
   byte-compares its small tier's phases against them.

   Deliberately not kept in sync stylistically with lib/core: this code
   must stay what it is. *)

module Reg = Iloc.Reg
module Instr = Iloc.Instr
module Interference = Remat.Interference
module Context = Remat.Context
module Stats = Remat.Stats
module Tag = Remat.Tag

module Simplify = struct
  (* O(n) whole-graph rescan per spill-candidate pick. *)
  let run (g : Interference.t) ~k ~costs =
    let n = Interference.n_nodes g in
    let deg = Array.init n (Interference.degree g) in
    let removed = Array.init n (fun i -> not (Interference.alive g i)) in
    let queued = Array.make n false in
    let k_of i = k (Reg.cls (Interference.reg g i)) in
    let trivial = Queue.create () in
    for i = 0 to n - 1 do
      if (not removed.(i)) && deg.(i) < k_of i then begin
        Queue.add i trivial;
        queued.(i) <- true
      end
    done;
    let stack = ref [] in
    let remaining = ref (Interference.n_alive g) in
    let remove i =
      removed.(i) <- true;
      decr remaining;
      stack := i :: !stack;
      Interference.iter_neighbors
        (fun nb ->
          if not removed.(nb) then begin
            deg.(nb) <- deg.(nb) - 1;
            if deg.(nb) < k_of nb && not queued.(nb) then begin
              Queue.add nb trivial;
              queued.(nb) <- true
            end
          end)
        g i
    in
    while !remaining > 0 do
      if not (Queue.is_empty trivial) then begin
        let i = Queue.pop trivial in
        if not removed.(i) then remove i
      end
      else begin
        let best = ref (-1) in
        let best_metric = ref infinity in
        for i = 0 to n - 1 do
          if not removed.(i) then begin
            let metric =
              if deg.(i) = 0 then 0. else costs.(i) /. float_of_int deg.(i)
            in
            if
              metric < !best_metric
              || !best = -1
              || (metric = !best_metric && deg.(i) > deg.(!best))
            then begin
              best := i;
              best_metric := metric
            end
          end
        done;
        remove !best
      end
    done;
    !stack
end

module Select = struct
  type t = { colors : int option array; spilled : int list }

  (* Forbidden-color lists rebuilt per node, List.mem lookahead. *)
  let run (g : Interference.t) ~k ~order ~partners =
    let n = Interference.n_nodes g in
    let colors = Array.make n None in
    let forbidden i =
      Interference.fold_neighbors
        (fun nb acc ->
          match colors.(nb) with Some c -> c :: acc | None -> acc)
        g i []
    in
    let pick i =
      let ki = k (Reg.cls (Interference.reg g i)) in
      let bad = forbidden i in
      let avail = Array.make ki true in
      List.iter (fun c -> if c < ki then avail.(c) <- false) bad;
      let available c = c >= 0 && c < ki && avail.(c) in
      let partner_color =
        List.find_opt
          (fun p ->
            match colors.(p) with Some c -> available c | None -> false)
          partners.(i)
        |> Option.map (fun p -> Option.get colors.(p))
      in
      match partner_color with
      | Some c -> Some c
      | None -> (
          let lookahead =
            List.find_map
              (fun p ->
                if colors.(p) <> None then None
                else begin
                  let pbad = forbidden p in
                  let rec first c =
                    if c >= ki then None
                    else if avail.(c) && not (List.mem c pbad) then Some c
                    else first (c + 1)
                  in
                  first 0
                end)
              partners.(i)
          in
          match lookahead with
          | Some c -> Some c
          | None ->
              let rec first c =
                if c >= ki then None
                else if avail.(c) then Some c
                else first (c + 1)
              in
              first 0)
    in
    List.iter (fun i -> colors.(i) <- pick i) order;
    let spilled =
      List.sort Int.compare (List.filter (fun i -> colors.(i) = None) order)
    in
    { colors; spilled }
end

module Coalesce = struct
  type phase = Unrestricted | Conservative
  type outcome = { changed : bool; coalesced : int }

  let norm_pair a b = if Reg.compare a b <= 0 then (a, b) else (b, a)

  let merge_into (ctx : Context.t) g ~keep ~drop =
    let keep_reg = Interference.reg g keep
    and drop_reg = Interference.reg g drop in
    Interference.merge g ~keep ~drop;
    Context.count ctx Stats.Node_merges 1;
    let tags = ctx.Context.tags and infinite = ctx.Context.infinite in
    let drop_tag =
      Option.value (Reg.Tbl.find_opt tags drop_reg) ~default:Tag.Bottom
    in
    let keep_tag =
      Option.value (Reg.Tbl.find_opt tags keep_reg) ~default:Tag.Bottom
    in
    Reg.Tbl.replace tags keep_reg (Tag.meet drop_tag keep_tag);
    Reg.Tbl.remove tags drop_reg;
    if not (Reg.Tbl.mem infinite drop_reg) then
      Reg.Tbl.remove infinite keep_reg;
    Reg.Tbl.remove infinite drop_reg

  (* Whole-CFG rescan per sweep; allocating Briggs test (neighbor-list
     append, sort_uniq, filter).  Renames [cfg], the structured form of
     the context's arena that the caller keeps, in place after every
     sweep that merged; the production coalescer renames the arena once
     per round instead, and callers compare the two texts. *)
  let pass phase (ctx : Context.t) (cfg : Iloc.Cfg.t) =
    let g = Context.graph ctx in
    Context.count ctx Stats.Coalesce_sweeps 1;
    let split_set = Hashtbl.create 16 in
    List.iter
      (fun (a, b) -> Hashtbl.replace split_set (norm_pair a b) ())
      ctx.Context.split_pairs;
    let is_split d s = Hashtbl.mem split_set (norm_pair d s) in
    let briggs_ok di si =
      let cls = Reg.cls (Interference.reg g di) in
      let nbrs =
        List.sort_uniq Int.compare
          (Interference.neighbors g di @ Interference.neighbors g si)
      in
      let significant =
        List.length
          (List.filter
             (fun nb ->
               nb <> di && nb <> si
               && Interference.degree g nb
                  >= ctx.Context.k (Reg.cls (Interference.reg g nb)))
             nbrs)
      in
      significant < ctx.Context.k cls
    in
    let coalesced = ref 0 in
    Iloc.Cfg.iter_blocks
      (fun b ->
        List.iter
          (fun (i : Instr.t) ->
            if Instr.is_copy i then begin
              let d = Option.get i.Instr.dst and s = i.Instr.srcs.(0) in
              match
                (Interference.index_opt g d, Interference.index_opt g s)
              with
              | Some d0, Some s0 ->
                  let di = Interference.find g d0
                  and si = Interference.find g s0 in
                  if di <> si && not (Interference.interfere g di si) then begin
                    let ok =
                      match phase with
                      | Unrestricted -> not (is_split d s)
                      | Conservative -> is_split d s && briggs_ok di si
                    in
                    if ok then begin
                      merge_into ctx g ~keep:di ~drop:si;
                      incr coalesced
                    end
                  end
              | _ -> ()
            end)
          b.body)
      cfg;
    if !coalesced = 0 then { changed = false; coalesced = 0 }
    else begin
      let rename r =
        match Interference.index_opt g r with
        | None -> r
        | Some i -> Interference.reg g (Interference.find g i)
      in
      Iloc.Cfg.iter_blocks
        (fun b ->
          b.Iloc.Block.body <-
            List.filter_map
              (fun i ->
                let i = Instr.map_regs rename i in
                match (i.Instr.op, i.Instr.dst) with
                | Instr.Copy, Some d when Reg.equal d i.Instr.srcs.(0) -> None
                | _ -> Some i)
              b.Iloc.Block.body;
          b.Iloc.Block.term <- Instr.map_regs rename b.Iloc.Block.term)
        cfg;
      ctx.Context.split_pairs <-
        List.filter_map
          (fun (a, b) ->
            let a = rename a and b = rename b in
            if Reg.equal a b then None else Some (a, b))
          ctx.Context.split_pairs;
      ctx.Context.coalesced <- ctx.Context.coalesced + !coalesced;
      Context.count ctx Stats.Coalesced_copies !coalesced;
      Context.invalidate_liveness ctx;
      { changed = true; coalesced = !coalesced }
    end

  (* The allocator's build_coalesce regime: unrestricted to a fixpoint,
     then (for splitting modes) conservative to a fixpoint. *)
  let fixpoint (ctx : Context.t) cfg =
    ignore (Context.graph ctx);
    let phase = ref Unrestricted in
    let rec loop () =
      let outcome = pass !phase ctx cfg in
      if outcome.changed then loop ()
      else
        match !phase with
        | Unrestricted when Remat.Mode.splits ctx.Context.mode ->
            phase := Conservative;
            loop ()
        | Unrestricted | Conservative -> ()
    in
    loop ()
end

module Spill_cost = struct
  (* The structured-routine walk: [Instr.defs @ Instr.uses] per
     instruction, a [List.sort_uniq] of the uses and a [Reg.Tbl] lookup
     per operand.  The production phase reads the arena instead and must
     produce the same floats bit for bit. *)
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
          match Interference.index_opt g r with
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
                  if Tag.is_inst (tag_of u) then float_of_int Remat.Spill_cost.remat_cycles
                  else float_of_int Remat.Spill_cost.load_store_cycles
                in
                costs.(ui) <- costs.(ui) +. (per_use *. w))
              uses;
            List.iter
              (fun d ->
                let di = Interference.index g d in
                (* Rematerializable values are never stored (§3.2). *)
                if not (Tag.is_inst (tag_of d)) then
                  costs.(di) <-
                    costs.(di) +. (float_of_int Remat.Spill_cost.load_store_cycles *. w))
              (Instr.defs i))
          b)
      cfg;
    for i = 0 to n - 1 do
      if Reg.Tbl.mem infinite (Interference.reg g i) || tiny i then
        costs.(i) <- infinity
    done;
    costs
end
