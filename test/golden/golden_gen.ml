(* Golden-output generator: prints the allocated ILOC for one scenario
   under every allocator mode.  Each scenario mirrors one of the
   walkthroughs in examples/ (plus the paper's Figure 1), so the golden
   files double as a change detector for the examples' output: any edit
   to coloring, spilling or remat emission that alters allocated code
   shows up as a readable diff, and `dune promote` blesses it.

   Every allocation runs with ~verify:true, so a golden file can only be
   (re)generated from output the static validator has proved faithful. *)

module Mode = Remat.Mode
module Machine = Remat.Machine
module Instr = Iloc.Instr
module Builder = Iloc.Builder

(* The routine examples/quickstart.ml builds: sum a constant table. *)
let quickstart () =
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
  Builder.finish b

(* The MF program examples/compiler_backend.ml compiles. *)
let smooth_source =
  {|
program smooth
const n = 24
real sig[24] = { 0.1 0.9 0.4 0.8 0.2 0.7 0.3 0.6 0.5 0.4 0.6 0.3
                 0.7 0.2 0.8 0.1 0.9 0.0 0.5 0.5 0.4 0.6 0.3 0.7 }
real outv[24]
int i, pass
real a, b, c, total
total = 0.0
for pass = 1 to 4 do
  for i = 1 to n - 2 do
    a = sig[i - 1]
    b = sig[i]
    c = sig[i + 1]
    outv[i] = 0.25 * a + 0.5 * b + 0.25 * c
  end
  for i = 1 to n - 2 do
    sig[i] = outv[i]
    total = total + outv[i]
  end
end
print total
|}

let scenario = function
  | "quickstart" ->
      (quickstart (), Machine.make ~name:"tiny" ~k_int:4 ~k_float:2)
  | "figure1" -> (Suite.Figures.fig1_source (), Suite.Figures.fig1_machine)
  | "compiler_backend" ->
      ( Opt.Pipeline.run (Frontend.Lower.compile smooth_source),
        Machine.make ~name:"k8" ~k_int:8 ~k_float:8 )
  | "allocator_research" ->
      ( Suite.Kernels.cfg_of (Suite.Kernels.find "ptrsweep"),
        Machine.make ~name:"k8" ~k_int:8 ~k_float:8 )
  | s -> failwith ("unknown scenario: " ^ s)

(* Table 1's raw numbers for all 49 kernels: the spill cycles of the
   Optimistic (Chaitin) and Remat (Briggs) allocators on the standard
   machine, then, per instruction category, the spill cycles each
   allocator spent there — dynamic count minus the huge-machine
   baseline, two cycles per load or store and one for everything else
   (§5.1).  Integers, so the golden pins what [pp_table1]'s rounded
   percentages would hide. *)
let table1 () =
  let weight = function
    | Instr.Cat_load | Instr.Cat_store -> 2
    | Instr.Cat_copy | Instr.Cat_ldi | Instr.Cat_addi | Instr.Cat_other -> 1
  in
  let category_cycles (m : Suite.Report.measurement) c =
    weight c
    * (Sim.Counts.get m.Suite.Report.counts c
      - Sim.Counts.get m.Suite.Report.baseline c)
  in
  List.iter
    (fun (k : Suite.Kernels.kernel) ->
      let opt = Suite.Report.measure Mode.Chaitin_remat k in
      let rem = Suite.Report.measure Mode.Briggs_remat k in
      Printf.printf "%-10s %-10s optimistic %d remat %d\n"
        k.Suite.Kernels.program k.Suite.Kernels.name opt.Suite.Report.spill_cycles
        rem.Suite.Report.spill_cycles;
      List.iter
        (fun c ->
          Printf.printf "  %-6s %d %d\n" (Instr.category_to_string c)
            (category_cycles opt c) (category_cycles rem c))
        Instr.all_categories)
    Suite.Kernels.all

(* The §6 ablation's raw numbers for all 49 kernels: per allocator
   mode, the spill cycles on the standard machine and the number of
   split pairs the mode handed to coloring (renumber's splits plus the
   loop scheme's).  [bench/main.exe ablation] prints the cycles. *)
let ablation () =
  List.iter
    (fun (r : Suite.Report.ablation_row) ->
      let k = r.Suite.Report.ab_kernel in
      Printf.printf "%-10s %s\n" k.Suite.Kernels.program k.Suite.Kernels.name;
      List.iter
        (fun (c : Suite.Report.ablation_cell) ->
          Printf.printf "  %-18s cycles %d splits %d\n"
            (Mode.to_string c.Suite.Report.ab_mode)
            c.Suite.Report.ab_cycles c.Suite.Report.ab_splits)
        r.Suite.Report.per_mode)
    (Suite.Report.ablation ())

let () =
  if Sys.argv.(1) = "table1" then table1 ()
  else if Sys.argv.(1) = "ablation" then ablation ()
  else
  let cfg, machine = scenario Sys.argv.(1) in
  List.iter
    (fun mode ->
      Printf.printf "==== %s @ %s (%d int / %d float) ====\n"
        (Mode.to_string mode) machine.Machine.name machine.Machine.k_int
        machine.Machine.k_float;
      (match Remat.Allocator.allocate ~verify:true ~mode ~machine cfg with
      | res ->
          print_string (Iloc.Printer.routine_to_string res.Remat.Allocator.cfg);
          Printf.printf
            "rounds=%d remat=%d memory=%d\n"
            res.Remat.Allocator.rounds res.Remat.Allocator.spilled_remat
            res.Remat.Allocator.spilled_memory
      | exception Remat.Spill_code.Pressure_too_high _ ->
          print_string "(allocation refused: pressure too high)\n");
      print_newline ())
    Mode.all
