(** Textual ILOC output.

    Emits the concrete syntax accepted by {!Parser}; [Parser.routine
    (Printer.routine_to_string cfg)] round-trips any routine that is not in
    SSA form (φ-nodes have no concrete syntax; they exist only inside the
    allocator).  The whole routine is written into one [Buffer], each
    instruction through {!Instr.to_buffer}. *)

let add_symbol b (s : Symbol.t) =
  Printf.bprintf b "data %s%s[%d]" (if s.readonly then "const " else "")
    s.name s.size;
  (match s.init with
  | Symbol.Uninit -> ()
  | Symbol.Int_elts l ->
      Buffer.add_string b " = {";
      List.iter (Printf.bprintf b " %d") l;
      Buffer.add_string b " }"
  | Symbol.Float_elts l ->
      Buffer.add_string b " = f{";
      List.iter (Printf.bprintf b " %h") l;
      Buffer.add_string b " }");
  Buffer.add_char b '\n'

let add_instr b i =
  Buffer.add_string b "  ";
  Instr.to_buffer b i;
  Buffer.add_char b '\n'

let routine_to_string (cfg : Cfg.t) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "routine %s\n" cfg.name;
  List.iter (add_symbol b) cfg.symbols;
  Cfg.iter_blocks
    (fun blk ->
      Buffer.add_string b blk.label;
      Buffer.add_string b ":\n";
      if blk.phis <> [] then
        invalid_arg "Printer.routine_to_string: SSA form has no concrete syntax";
      List.iter (add_instr b) blk.body;
      add_instr b blk.term)
    cfg;
  Buffer.contents b
