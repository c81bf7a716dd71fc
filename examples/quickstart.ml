(* Quickstart: build a routine with the programmatic API, allocate it for
   a small machine, and run both versions.

     dune exec examples/quickstart.exe *)

module Instr = Iloc.Instr
module Builder = Iloc.Builder

let () =
  (* 1. Build a routine: sum a small constant table. *)
  let b = Builder.create "quickstart" in
  Builder.data b ~readonly:true
    ~init:(Iloc.Symbol.Int_elts [ 3; 1; 4; 1; 5; 9; 2; 6 ])
    "table" 8;
  let p = Builder.ireg b in
  let i = Builder.ireg b in
  let acc = Builder.ireg b in
  let v = Builder.ireg b in
  let t = Builder.ireg b in
  let zero = Builder.ireg b in
  Builder.block b "entry"
    [ Instr.laddr p "table"; Instr.ldi i 8; Instr.ldi acc 0 ]
    ~term:(Instr.jmp "loop");
  Builder.block b "loop"
    [
      Instr.load v p;
      Instr.add acc acc v;
      Instr.addi p p 1;
      Instr.subi i i 1;
      Instr.ldi zero 0;
      Instr.cmp Instr.Gt t i zero;
    ]
    ~term:(Instr.cbr t "loop" "done");
  Builder.block b "done" [ Instr.print_ acc ] ~term:(Instr.ret (Some acc));
  let routine = Builder.finish b in
  Fmt.pr "--- source routine ---@.%s@." (Iloc.Printer.routine_to_string routine);

  (* 2. Run it with the interpreter. *)
  let before = Sim.Interp.run routine in
  Fmt.pr "result: %a@.dynamic: %a@.@."
    Fmt.(option ~none:(any "-") (fun ppf v -> Sim.Interp.pp_value ppf v))
    before.Sim.Interp.return Sim.Counts.pp before.Sim.Interp.counts;

  (* 3. Allocate registers for a tiny machine. *)
  let machine = Remat.Machine.make ~name:"tiny" ~k_int:4 ~k_float:2 in
  let res =
    Remat.Allocator.allocate ~mode:Remat.Mode.Briggs_remat ~machine routine
  in
  Fmt.pr "--- after allocation (4 int / 2 float registers) ---@.%s@."
    (Iloc.Printer.routine_to_string res.Remat.Allocator.cfg);
  Fmt.pr
    "rounds=%d, %d live ranges from %d values, %d rematerialized, %d through \
     memory@.@."
    res.Remat.Allocator.rounds res.Remat.Allocator.n_live_ranges
    res.Remat.Allocator.n_values res.Remat.Allocator.spilled_remat
    res.Remat.Allocator.spilled_memory;

  (* 4. The allocated code must behave identically. *)
  let after = Sim.Interp.run res.Remat.Allocator.cfg in
  assert (Sim.Interp.outcome_equal before after);
  Fmt.pr "allocated code is observationally equivalent; dynamic: %a@."
    Sim.Counts.pp after.Sim.Interp.counts
