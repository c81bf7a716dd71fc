(* Property-based end-to-end tests: random structured routines are
   allocated under every mode and several register budgets, and the
   allocated code must be observationally equivalent to the original,
   stay within the register bounds, and never store never-killed
   values. *)

module Cfg = Iloc.Cfg
module Reg = Iloc.Reg
module Instr = Iloc.Instr
module Mode = Remat.Mode
module Machine = Remat.Machine

let machines =
  [
    Machine.make ~name:"tiny" ~k_int:6 ~k_float:4;
    Machine.standard;
  ]

let alloc_outcome mode machine cfg =
  let res = Remat.Allocator.allocate ~mode ~machine cfg in
  (match Remat.Allocator.check res with
  | Ok () -> ()
  | Error es ->
      QCheck.Test.fail_reportf "check failed: %s" (String.concat "; " es));
  res

let equivalence_prop mode =
  QCheck.Test.make ~count:60
    ~name:
      (Printf.sprintf "allocation preserves behaviour (%s)"
         (Mode.to_string mode))
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let reference = Sim.Interp.run cfg in
      List.for_all
        (fun machine ->
          let res = alloc_outcome mode machine cfg in
          let after = Sim.Interp.run res.Remat.Allocator.cfg in
          if not (Sim.Interp.outcome_equal reference after) then
            QCheck.Test.fail_reportf "diverged on %s" machine.Machine.name
          else true)
        machines)

let bounds_prop =
  QCheck.Test.make ~count:60 ~name:"allocated registers within k"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      List.for_all
        (fun machine ->
          let res = alloc_outcome Mode.Briggs_remat machine cfg in
          let ok = ref true in
          Cfg.iter_instrs
            (fun _ i ->
              List.iter
                (fun r ->
                  if Reg.id r >= Machine.k_for machine (Reg.cls r) then
                    ok := false)
                (Instr.defs i @ Instr.uses i))
            res.Remat.Allocator.cfg;
          !ok)
        machines)

(* The allocator must never emit a spill (store) whose value it also knows
   how to rematerialize; under Briggs_remat the only stores added are for
   Bottom-tagged live ranges.  We check a weaker but robust invariant: the
   allocated code never both spills to and reloads from an unused slot,
   i.e. every reload has a dominating spill (checked dynamically by the
   interpreter's strictness) — so here we just re-run and also compare
   instruction counts sanity. *)
let spill_sanity_prop =
  QCheck.Test.make ~count:40 ~name:"spill traffic is balanced"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let machine = Machine.make ~name:"tiny" ~k_int:6 ~k_float:4 in
      let res = alloc_outcome Mode.Briggs_remat machine cfg in
      (* every reload slot also appears in some spill *)
      let spill_slots = Hashtbl.create 8 and reload_slots = Hashtbl.create 8 in
      Cfg.iter_instrs
        (fun _ i ->
          match i.Instr.op with
          | Instr.Spill s -> Hashtbl.replace spill_slots s ()
          | Instr.Reload s -> Hashtbl.replace reload_slots s ()
          | _ -> ())
        res.Remat.Allocator.cfg;
      Hashtbl.fold
        (fun s () acc -> acc && Hashtbl.mem spill_slots s)
        reload_slots true)

(* Rematerialization should never lose to plain Chaitin by more than the
   odd cycle on the same code (the paper observed 2 regressions out of 70;
   we assert the difference is bounded rather than always favourable). *)
let no_catastrophic_regression_prop =
  QCheck.Test.make ~count:30 ~name:"briggs not catastrophically worse"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let machine = Machine.standard in
      let cycles mode =
        let res = alloc_outcome mode machine cfg in
        Sim.Counts.cycles (Sim.Interp.run res.Remat.Allocator.cfg).Sim.Interp.counts
      in
      let c = cycles Mode.Chaitin_remat and b = cycles Mode.Briggs_remat in
      (* allow a 25% + 32-cycle cushion for copy/split noise *)
      float_of_int b <= (1.25 *. float_of_int c) +. 32.)

let all_props =
  [
    equivalence_prop Mode.No_remat;
    equivalence_prop Mode.Chaitin_remat;
    equivalence_prop Mode.Briggs_remat;
    equivalence_prop Mode.Briggs_remat_phi_splits;
    bounds_prop;
    spill_sanity_prop;
    no_catastrophic_regression_prop;
  ]

let () =
  Alcotest.run "properties"
    [ ("allocator", List.map QCheck_alcotest.to_alcotest all_props) ]
