module Cfg = Iloc.Cfg
module Block = Iloc.Block
module Instr = Iloc.Instr
module Reg = Iloc.Reg

type scheme = [ `All_loops | `Outer_loops | `Unreferenced ]

(* Every register an instruction of the loop body uses or defines. *)
let referenced_in (cfg : Cfg.t) (body : Dataflow.Bitset.t) =
  let seen = Reg.Tbl.create 64 in
  let note r = Reg.Tbl.replace seen r () in
  Cfg.iter_blocks
    (fun b ->
      if Dataflow.Bitset.mem body b.Block.id then
        Block.iter_instrs
          (fun i ->
            Option.iter note i.Instr.dst;
            Array.iter note i.Instr.srcs)
          b)
    cfg;
  seen

(* Split [r] around one loop: rename it to a fresh [r'] inside the body,
   with [r' <- r] on every entry edge and [r <- r'] on every exit edge
   where the original is still live.  The exit copy also runs when the
   loop never references the value — that is what frees [r]'s register
   across the loop (the value travels in [r'], which has no in-loop
   references and is the ideal spill or rematerialization victim). *)
let split_one (cfg : Cfg.t) ~tags ~pairs (loop : Dataflow.Loops.loop)
    (live : Dataflow.Liveness.Boundary.t) r =
  let body = loop.Dataflow.Loops.body in
  let header = loop.Dataflow.Loops.header in
  let in_loop b = Dataflow.Bitset.mem body b in
  let r' = Cfg.fresh_reg cfg (Reg.cls r) in
  Reg.Tbl.replace tags r'
    (Option.value (Reg.Tbl.find_opt tags r) ~default:Tag.Bottom);
  pairs := (r', r) :: !pairs;
  (* Entry copies: critical edges are split, so a predecessor outside the
     loop has a single successor and the copy cannot leak onto another
     path. *)
  List.iter
    (fun pred ->
      if not (in_loop pred) then begin
        assert (List.length (Cfg.succs cfg pred) = 1);
        Block.append_before_term (Cfg.block cfg pred) [ Instr.copy r' r ]
      end)
    (Cfg.preds cfg header);
  (* Rename inside the body. *)
  let rename x = if Reg.equal x r then r' else x in
  Cfg.iter_blocks
    (fun b ->
      if in_loop b.Block.id then Block.map_instrs (Instr.map_regs rename) b)
    cfg;
  (* Exit copies wherever the original name is still wanted. *)
  Cfg.iter_blocks
    (fun b ->
      if in_loop b.Block.id then
        List.iter
          (fun s ->
            if
              (not (in_loop s))
              && Dataflow.Liveness.Boundary.live_in_mem live s r
            then
              if List.length (Cfg.succs cfg b.Block.id) = 1 then
                Block.append_before_term b [ Instr.copy r r' ]
              else begin
                (* the exit edge is non-critical, so the target has a
                   single predecessor and a copy at its head sits on this
                   edge only *)
                assert (List.length (Cfg.preds cfg s) = 1);
                let sb = Cfg.block cfg s in
                sb.Block.body <- Instr.copy r r' :: sb.Block.body
              end)
          (Cfg.succs cfg b.Block.id))
    cfg;
  r'

let run (scheme : scheme) (cfg : Cfg.t) ~tags ~(loops : Dataflow.Loops.t)
    ~order =
  let pairs = ref [] in
  (* Outermost first: inner splits then operate on the outer loop's fresh
     name, chaining naturally. *)
  let ordered =
    List.sort
      (fun (a : Dataflow.Loops.loop) b -> Int.compare a.depth b.depth)
      (Array.to_list loops.Dataflow.Loops.loops)
  in
  let chosen =
    match scheme with
    | `All_loops | `Unreferenced -> ordered
    | `Outer_loops ->
        List.filter (fun (l : Dataflow.Loops.loop) -> l.depth = 1) ordered
  in
  (* Scheme 3 splits each value around the *outermost* loop that never
     references it; names created by such a split are not re-split in
     inner loops. *)
  let no_resplit : unit Reg.Tbl.t = Reg.Tbl.create 16 in
  List.iter
    (fun (l : Dataflow.Loops.loop) ->
      (* Structure never changes — only copies are inserted — so
         recomputing liveness per loop is sound. *)
      let live =
        Dataflow.Liveness.Boundary.compute ~order (Iloc.Flat.of_routine cfg)
      in
      let candidates =
        Dataflow.Liveness.Boundary.live_in live l.Dataflow.Loops.header
      in
      let candidates =
        match scheme with
        | `All_loops | `Outer_loops -> candidates
        | `Unreferenced ->
            let referenced = referenced_in cfg l.Dataflow.Loops.body in
            List.filter
              (fun r ->
                not (Reg.Tbl.mem no_resplit r || Reg.Tbl.mem referenced r))
              candidates
      in
      List.iter
        (fun r ->
          let r' = split_one cfg ~tags ~pairs l live r in
          if scheme = `Unreferenced then Reg.Tbl.replace no_resplit r' ())
        candidates)
    chosen;
  !pairs

let phase mode stats ~loops ~order ~tags ~split_pairs flat =
  match Mode.loop_scheme mode with
  | None -> (split_pairs, flat)
  | Some scheme ->
      Stats.time stats ~round:0 Stats.Splitting (fun () ->
          let cfg = Iloc.Flat.to_routine flat in
          let pairs = run scheme cfg ~tags ~loops ~order in
          (split_pairs @ pairs, Iloc.Flat.of_routine cfg))
