(** Reproductions of the paper's illustrative figures.

    These print to a formatter so both the bench harness and the examples
    can render them.  Figure 1 and Figure 3 use the paper's two-loop
    pointer fragment; a handful of extra values provide the "high demand
    for registers in the first loop" that forces the pointer to spill on
    a deliberately small machine. *)

module Instr = Iloc.Instr
module Builder = Iloc.Builder
module Cfg = Iloc.Cfg
module Reg = Iloc.Reg
module Mode = Remat.Mode
module Machine = Remat.Machine

(* The Source column of Figure 1: p <- Label; first loop reads [p] with p
   invariant; second loop walks p.  Three loads provide the competing
   register demand. *)
let fig1_source () =
  let b = Builder.create "figure1" in
  Builder.data b ~readonly:true
    ~init:(Iloc.Symbol.Float_elts [ 1.5; 2.5; 3.5; 4.5; 5.5; 6.5; 7.5; 8.5 ])
    "Label" 8;
  Builder.data b ~readonly:false
    ~init:(Iloc.Symbol.Int_elts [ 3; 1; 4; 1; 5 ])
    "c" 5;
  let p = Builder.ireg b in
  let y = Builder.freg b in
  let x = Builder.freg b in
  let i = Builder.ireg b in
  let t = Builder.ireg b in
  let zero = Builder.ireg b in
  let cbase = Builder.ireg b in
  let v1 = Builder.ireg b and v2 = Builder.ireg b and v3 = Builder.ireg b in
  let sum = Builder.ireg b in
  Builder.block b "entry"
    [
      Instr.laddr cbase "c";
      Instr.loadi v1 cbase 0;
      Instr.loadi v2 cbase 1;
      Instr.loadi v3 cbase 2;
      Instr.laddr p "Label";
      Instr.lfi y 0.0;
      Instr.ldi i 8;
      Instr.ldi sum 0;
    ]
    ~term:(Instr.jmp "loop1");
  Builder.block b "loop1"
    [
      Instr.load x p;
      Instr.fadd y y x;
      Instr.add sum sum v1;
      Instr.add sum sum v2;
      Instr.add sum sum v3;
      Instr.subi i i 1;
      Instr.ldi zero 0;
      Instr.cmp Instr.Gt t i zero;
    ]
    ~term:(Instr.cbr t "loop1" "mid");
  Builder.block b "mid" [ Instr.ldi i 8 ] ~term:(Instr.jmp "loop2");
  Builder.block b "loop2"
    [
      Instr.load x p;
      Instr.fadd y y x;
      Instr.addi p p 1;
      Instr.subi i i 1;
      Instr.ldi zero 0;
      Instr.cmp Instr.Gt t i zero;
    ]
    ~term:(Instr.cbr t "loop2" "exit");
  Builder.block b "exit"
    [ Instr.print_ y; Instr.print_ sum ]
    ~term:(Instr.ret (Some sum));
  Builder.finish b

(* Small enough that p must spill: 5 integer registers, 2 float. *)
let fig1_machine = Machine.make ~name:"figure1" ~k_int:5 ~k_float:2

let pp_routine ppf cfg = Format.fprintf ppf "%a" Iloc.Cfg.pp cfg

let fig1 ppf =
  let src = fig1_source () in
  Format.fprintf ppf "=== Figure 1: Rematerialization versus Spilling ===@.@.";
  Format.fprintf ppf "--- Source (before allocation) ---@.%a@." pp_routine src;
  let show mode title =
    let res = Remat.Allocator.allocate ~mode ~machine:fig1_machine src in
    let out = Sim.Interp.run res.Remat.Allocator.cfg in
    Format.fprintf ppf "--- %s (k = %d int / %d float) ---@.%a@." title
      fig1_machine.Machine.k_int fig1_machine.Machine.k_float pp_routine
      res.Remat.Allocator.cfg;
    Format.fprintf ppf "dynamic: %a@.@." Sim.Counts.pp out.Sim.Interp.counts
  in
  show Mode.Chaitin_remat "Chaitin (whole live range spilled)";
  show Mode.Briggs_remat "Rematerialization (this paper)";
  Format.fprintf ppf
    "Note how the Chaitin column reloads p from its spill slot inside both@.\
     loops, while the rematerializing allocator re-creates the loop-invariant@.\
     value with a one-cycle 'laddr' and leaves the walking value in a register.@."

let fig2 ppf =
  Format.fprintf ppf "=== Figure 2: The Optimistic Allocator ===@.@.";
  Format.fprintf ppf
    "spill code --+@.\
    \             v@.\
    \ -> renumber -> build -> coalesce -> spill costs -> simplify -> select ->@.@.";
  let src = fig1_source () in
  let res =
    Remat.Allocator.allocate ~mode:Mode.Briggs_remat ~machine:fig1_machine src
  in
  Format.fprintf ppf "Phase trace for the Figure 1 routine:@.%a@."
    Remat.Stats.pp res.Remat.Allocator.stats

let fig3 ppf =
  Format.fprintf ppf "=== Figure 3: Introducing Splits ===@.@.";
  let src = Cfg.split_critical_edges (fig1_source ()) in
  let ssa = Ssa.Construct.run src in
  let vals = Ssa.Values.analyze ssa in
  let tags = Remat.Remat_analysis.run ssa vals in
  Format.fprintf ppf "--- SSA form (step 2-3 of renumber) ---@.%a@."
    pp_routine ssa;
  Format.fprintf ppf "--- Rematerialization tags (step 4) ---@.";
  for v = 0 to Ssa.Values.count vals - 1 do
    Format.fprintf ppf "  %-6s : %s@."
      (Reg.to_string (Ssa.Values.reg vals v))
      (Remat.Tag.to_string tags.(v))
  done;
  let rn =
    let fl = Iloc.Flat.of_routine src in
    Remat.Renumber.run_flat Mode.Briggs_remat
      ~dom:(Dataflow.Dominance.compute_flat fl) fl
  in
  Format.fprintf ppf
    "@.--- After steps 5-6: live ranges with minimal splits ---@.%a@."
    pp_routine (Iloc.Flat.to_routine rn.Remat.Renumber.fl);
  Format.fprintf ppf "split copies inserted: %d  (%s)@."
    (List.length rn.Remat.Renumber.f_split_pairs)
    (String.concat ", "
       (List.map
          (fun (d, s) ->
            Printf.sprintf "%s <- %s" (Reg.to_string d) (Reg.to_string s))
          rn.Remat.Renumber.f_split_pairs))

let fig4 ppf =
  Format.fprintf ppf "=== Figure 4: ILOC and its execution ===@.@.";
  Format.fprintf ppf
    "(The paper translates allocated ILOC to instrumented C; this system@.\
     interprets ILOC directly and counts executed instructions.)@.@.";
  let kernel = Kernels.find "saxpy" in
  let cfg = Kernels.cfg_of kernel in
  let res =
    Remat.Allocator.allocate ~mode:Mode.Briggs_remat
      ~machine:Machine.standard cfg
  in
  Format.fprintf ppf "--- allocated ILOC (%s) ---@.%a@."
    kernel.Kernels.name pp_routine res.Remat.Allocator.cfg;
  let out = Sim.Interp.run res.Remat.Allocator.cfg in
  Format.fprintf ppf "--- dynamic instruction counts ---@.%a@." Sim.Counts.pp
    out.Sim.Interp.counts
