module Cfg = Iloc.Cfg
module Block = Iloc.Block
module Instr = Iloc.Instr
module Reg = Iloc.Reg

let instr_count cfg =
  Cfg.fold_blocks
    (fun n b -> n + List.length b.Block.body + 1)
    0 cfg

(* Candidates are built as plain (label, body, term) lists and re-made
   into a fresh Cfg, so accepted reductions never alias the previous
   routine's mutable blocks. *)
let blocks_of cfg =
  List.rev
    (Cfg.fold_blocks
       (fun acc b -> (b.Block.label, b.Block.body, b.Block.term) :: acc)
       [] cfg)

let build (cfg : Cfg.t) blocks =
  match
    Cfg.make ~name:cfg.name ~symbols:cfg.symbols
      (List.mapi
         (fun id (label, body, term) -> Block.make ~id ~label ~body ~term ())
         blocks)
  with
  | c -> Some c
  | exception Invalid_argument _ -> None

let viable cfg =
  match Iloc.Validate.routine cfg with Ok () -> true | Error _ -> false

let accept ~interesting = function
  | None -> None
  | Some cand -> if viable cand && interesting cand then Some cand else None

(* Apply [f] to the [i]-th block only. *)
let map_nth blocks i f =
  List.mapi (fun j b -> if j = i then f b else b) blocks

(* --- pass: replace a conditional branch by either of its targets --- *)
let straighten ~interesting cfg =
  let blocks = blocks_of cfg in
  let n = List.length blocks in
  let candidate i keep =
    let changed = ref false in
    let blocks' =
      map_nth blocks i (fun (l, body, term) ->
          match term.Instr.op with
          | Instr.Cbr (l1, l2) ->
              changed := true;
              (l, body, Instr.jmp (if keep = 0 then l1 else l2))
          | _ -> (l, body, term))
    in
    if not !changed then None
    else
      accept ~interesting
        (Option.map Cfg.drop_unreachable (build cfg blocks'))
  in
  let rec scan i =
    if i >= n then None
    else
      match candidate i 0 with
      | Some c -> Some c
      | None -> (
          match candidate i 1 with Some c -> Some c | None -> scan (i + 1))
  in
  scan 0

(* --- pass: delete a block ending in jmp, retargeting its predecessors --- *)
let bypass ~interesting cfg =
  let blocks = blocks_of cfg in
  let n = List.length blocks in
  let candidate i =
    match List.nth blocks i with
    | label_i, _, { Instr.op = Instr.Jmp l; _ } when l <> label_i ->
        let retarget t = if t = label_i then l else t in
        let blocks' =
          List.filteri (fun j _ -> j <> i) blocks
          |> List.map (fun (lab, body, term) ->
                 (lab, body, Instr.map_targets retarget term))
        in
        accept ~interesting
          (Option.map Cfg.drop_unreachable (build cfg blocks'))
    | _ -> None
  in
  let rec scan i =
    (* Never delete the entry block. *)
    if i >= n then None
    else match candidate i with Some c -> Some c | None -> scan (i + 1)
  in
  scan 1

(* --- pass: ddmin-style instruction windows --- *)
let drop_instrs ~interesting cfg =
  let blocks = blocks_of cfg in
  let candidate bi start len =
    let blocks' =
      map_nth blocks bi (fun (l, body, term) ->
          ( l,
            List.filteri (fun k _ -> k < start || k >= start + len) body,
            term ))
    in
    accept ~interesting (build cfg blocks')
  in
  let try_block bi (_, body, _) =
    let n = List.length body in
    let rec windows len =
      if len < 1 || n = 0 then None
      else
        let rec starts s =
          if s >= n then None
          else
            match candidate bi s (min len (n - s)) with
            | Some c -> Some c
            | None -> starts (s + len)
        in
        match starts 0 with
        | Some c -> Some c
        | None -> if len = 1 then None else windows ((len + 1) / 2)
    in
    windows n
  in
  let rec scan i = function
    | [] -> None
    | b :: rest -> (
        match try_block i b with Some c -> Some c | None -> scan (i + 1) rest)
  in
  scan 0 blocks

(* --- pass: move immediates toward zero --- *)
let shrink_op (op : Instr.op) : Instr.op list =
  let half n = n / 2 in
  match op with
  | Instr.Ldi n when n <> 0 -> [ Instr.Ldi 0; Instr.Ldi (half n) ]
  | Instr.Lfi x when x <> 0.0 -> [ Instr.Lfi 0.0 ]
  | Instr.Addi n when n <> 0 -> [ Instr.Addi 0; Instr.Addi (half n) ]
  | Instr.Subi n when n <> 0 -> [ Instr.Subi 0; Instr.Subi (half n) ]
  | Instr.Muli n when n <> 0 && n <> 1 -> [ Instr.Muli 1; Instr.Muli (half n) ]
  | Instr.Laddr (s, off) when off <> 0 -> [ Instr.Laddr (s, 0) ]
  | Instr.Lfp off when off <> 0 -> [ Instr.Lfp 0 ]
  | Instr.Ldro (s, off) when off <> 0 -> [ Instr.Ldro (s, 0) ]
  | Instr.Loadi off when off <> 0 -> [ Instr.Loadi 0 ]
  | Instr.Storei off when off <> 0 -> [ Instr.Storei 0 ]
  | _ -> []

let shrink_imms ~interesting cfg =
  let blocks = blocks_of cfg in
  let candidate bi k op' =
    let blocks' =
      map_nth blocks bi (fun (l, body, term) ->
          ( l,
            List.mapi
              (fun j (i : Instr.t) ->
                if j = k then { i with Instr.op = op' } else i)
              body,
            term ))
    in
    accept ~interesting (build cfg blocks')
  in
  let try_block bi (_, body, _) =
    let rec instrs k = function
      | [] -> None
      | (i : Instr.t) :: rest -> (
          let rec alts = function
            | [] -> None
            | op' :: more -> (
                match candidate bi k op' with
                | Some c -> Some c
                | None -> alts more)
          in
          match alts (shrink_op i.Instr.op) with
          | Some c -> Some c
          | None -> instrs (k + 1) rest)
    in
    instrs 0 body
  in
  let rec scan i = function
    | [] -> None
    | b :: rest -> (
        match try_block i b with Some c -> Some c | None -> scan (i + 1) rest)
  in
  scan 0 blocks

(* --- pass: substitute a register by a smaller-id one of its class --- *)
let merge_regs ~interesting cfg =
  let regs =
    Reg.Set.elements (Cfg.all_regs cfg)
    |> List.sort (fun a b -> compare (Reg.id b) (Reg.id a))
  in
  let blocks = blocks_of cfg in
  let candidate r s =
    let sub x = if Reg.equal x r then s else x in
    let blocks' =
      List.map
        (fun (l, body, term) ->
          (l, List.map (Instr.map_regs sub) body, Instr.map_regs sub term))
        blocks
    in
    accept ~interesting (build cfg blocks')
  in
  let rec targets r = function
    | [] -> None
    | s :: rest ->
        if Reg.id s < Reg.id r && Reg.cls_equal (Reg.cls s) (Reg.cls r) then (
          match candidate r s with Some c -> Some c | None -> targets r rest)
        else targets r rest
  in
  let smallest_first = List.rev regs in
  let rec scan = function
    | [] -> None
    | r :: rest -> (
        match targets r smallest_first with
        | Some c -> Some c
        | None -> scan rest)
  in
  scan regs

(* --- pass: drop static data no instruction references --- *)
let drop_symbols ~interesting cfg =
  let used = Hashtbl.create 8 in
  Cfg.iter_instrs
    (fun _ i ->
      match i.Instr.op with
      | Instr.Laddr (s, _) | Instr.Ldro (s, _) -> Hashtbl.replace used s ()
      | _ -> ())
    cfg;
  let keep (s : Iloc.Symbol.t) = Hashtbl.mem used s.name in
  if List.for_all keep cfg.Cfg.symbols then None
  else
    let cand =
      match
        Cfg.make ~name:cfg.Cfg.name
          ~symbols:(List.filter keep cfg.Cfg.symbols)
          (List.mapi
             (fun id (label, body, term) ->
               Block.make ~id ~label ~body ~term ())
             (blocks_of cfg))
      with
      | c -> Some c
      | exception Invalid_argument _ -> None
    in
    accept ~interesting cand

(* Safety bound on fixpoint rounds; every accepted candidate shrinks the
   measure, so the loop ends well before it. *)
let max_cycles = 200

let run ~interesting cfg0 =
  let passes =
    [ straighten; bypass; drop_instrs; shrink_imms; merge_regs; drop_symbols ]
  in
  let current = ref cfg0 in
  let changed = ref true in
  let cycles = ref 0 in
  while !changed && !cycles < max_cycles do
    incr cycles;
    changed := false;
    List.iter
      (fun pass ->
        let rec exhaust () =
          match pass ~interesting !current with
          | Some c ->
              current := c;
              changed := true;
              exhaust ()
          | None -> ()
        in
        exhaust ())
      passes
  done;
  !current
