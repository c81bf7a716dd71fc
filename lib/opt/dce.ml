module Instr = Iloc.Instr
module Reg = Iloc.Reg

let pure (op : Instr.op) =
  match op with
  | Instr.Ldi _ | Instr.Lfi _ | Instr.Laddr _ | Instr.Lfp _ | Instr.Ldro _
  | Instr.Add | Instr.Sub | Instr.Mul | Instr.Div | Instr.Rem | Instr.Cmp _
  | Instr.Addi _ | Instr.Subi _ | Instr.Muli _ | Instr.Fadd | Instr.Fsub
  | Instr.Fmul | Instr.Fdiv | Instr.Fcmp _ | Instr.Fneg | Instr.Fabs
  | Instr.Itof | Instr.Ftoi | Instr.Copy | Instr.Load | Instr.Loadx
  | Instr.Loadi _ | Instr.Reload _ | Instr.Nop ->
      true
  | Instr.Store | Instr.Storex | Instr.Storei _ | Instr.Spill _ | Instr.Jmp _
  | Instr.Cbr _ | Instr.Ret | Instr.Print ->
      false

let sweep (cfg : Iloc.Cfg.t) =
  let fl = Iloc.Flat.of_routine cfg in
  let live =
    Dataflow.Liveness.compute fl ~order:(Dataflow.Order.postorder_flat fl)
      ~phis:[||]
  in
  let regs = live.Dataflow.Liveness.regs in
  let changed = ref false in
  Iloc.Cfg.iter_blocks
    (fun b ->
      let live_now =
        Dataflow.Bitset.copy live.Dataflow.Liveness.live_out.(b.id)
      in
      (* terminator uses *)
      List.iter
        (fun u -> Dataflow.Bitset.add live_now (Dataflow.Reg_index.index regs u))
        (Instr.uses b.term);
      let keep_rev =
        List.fold_left
          (fun acc (i : Instr.t) ->
            let dead =
              pure i.Instr.op
              &&
              match i.Instr.dst with
              | Some d ->
                  not
                    (Dataflow.Bitset.mem live_now
                       (Dataflow.Reg_index.index regs d))
              | None -> i.Instr.op = Instr.Nop
            in
            if dead then begin
              changed := true;
              acc
            end
            else begin
              (match i.Instr.dst with
              | Some d ->
                  Dataflow.Bitset.remove live_now
                    (Dataflow.Reg_index.index regs d)
              | None -> ());
              List.iter
                (fun u ->
                  Dataflow.Bitset.add live_now
                    (Dataflow.Reg_index.index regs u))
                (Instr.uses i);
              i :: acc
            end)
          []
          (List.rev b.body)
      in
      b.Iloc.Block.body <- keep_rev)
    cfg;
  !changed

let routine cfg =
  let changed = ref false in
  while sweep cfg do
    changed := true
  done;
  !changed
