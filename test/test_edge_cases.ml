(* Edge cases across the pipeline: degenerate routines, single-class
   pressure, all-rematerializable code, and renumber invariants on random
   programs. *)

module Cfg = Iloc.Cfg
module Reg = Iloc.Reg
module Instr = Iloc.Instr
module Mode = Remat.Mode
module Machine = Remat.Machine

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let alloc_all_modes cfg =
  List.iter
    (fun mode -> ignore (Testutil.alloc_equiv ~mode cfg))
    Mode.all

let degenerate_tests =
  [
    tc "empty routine" (fun () ->
        alloc_all_modes (Iloc.Parser.routine "routine x\nentry:\n  ret\n"));
    tc "single instruction" (fun () ->
        alloc_all_modes
          (Iloc.Parser.routine
             "routine x\nentry:\n  r1 <- ldi 5\n  ret r1\n"));
    tc "self-loop block" (fun () ->
        alloc_all_modes
          (Iloc.Parser.routine
             "routine x\n\
              entry:\n\
             \  r1 <- ldi 5\n\
             \  jmp loop\n\
              loop:\n\
             \  r1 <- subi r1 1\n\
             \  r3 <- ldi 0\n\
             \  r2 <- cmp_gt r1 r3\n\
             \  cbr r2 loop out\n\
              out:\n\
             \  print r1\n\
             \  ret\n"));
    tc "floats only" (fun () ->
        alloc_all_modes
          (Iloc.Parser.routine
             "routine x\n\
              entry:\n\
             \  f1 <- lfi 1.5\n\
             \  f2 <- lfi 2.5\n\
             \  f3 <- fadd f1 f2\n\
             \  f4 <- fmul f3 f1\n\
             \  f5 <- fsub f4 f2\n\
             \  print f5\n\
             \  ret\n"));
    tc "everything rematerializable" (fun () ->
        (* all values are never-killed; under extreme pressure every
           spill must be a rematerialization, with no frame slots *)
        let b = Iloc.Builder.create "allremat" in
        let n = 12 in
        let rs = List.init n (fun _ -> Iloc.Builder.ireg b) in
        let acc = Iloc.Builder.ireg b in
        Iloc.Builder.block b "entry"
          (List.concat
             (List.mapi (fun i r -> [ Instr.ldi r (i * 3) ]) rs)
          @ (Instr.ldi acc 0
             :: List.map (fun r -> Instr.add acc acc r) rs)
          @ List.map (fun r -> Instr.add acc acc r) rs
          @ [ Instr.print_ acc ])
          ~term:(Instr.ret (Some acc));
        let cfg = Iloc.Builder.finish b in
        let machine = Machine.make ~name:"m" ~k_int:5 ~k_float:2 in
        let res =
          Testutil.alloc_equiv ~mode:Mode.Briggs_remat ~machine cfg
        in
        check Alcotest.int "no slots" 0 res.Remat.Allocator.spill_slots;
        check Alcotest.bool "rematerialized" true
          (res.Remat.Allocator.spilled_remat > 0));
    tc "deeply nested loops" (fun () ->
        let src =
          "program t\n\
           int i, j, k, s\n\
           s = 0\n\
           for i = 1 to 3 do\n\
           for j = 1 to 3 do\n\
           for k = 1 to 3 do\n\
           s = s + i * 100 + j * 10 + k\n\
           end\n\
           end\n\
           end\n\
           print s"
        in
        let cfg = Frontend.Lower.compile src in
        alloc_all_modes cfg;
        (* 27 iterations; sum = 27*mean *)
        match (Testutil.run_ok cfg).Sim.Interp.prints with
        | [ Sim.Interp.I s ] -> check Alcotest.int "sum" 5994 s
        | _ -> Alcotest.fail "prints");
    tc "branch-only routine (no loops)" (fun () ->
        alloc_all_modes (Testutil.diamond ()));
    tc "k = 2 on tiny code" (fun () ->
        let machine = Machine.make ~name:"k2" ~k_int:2 ~k_float:2 in
        let cfg =
          Iloc.Parser.routine
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 3\n\
            \  r2 <- addi r1 4\n\
            \  print r2\n\
            \  ret\n"
        in
        ignore (Testutil.alloc_equiv ~machine cfg));
  ]

(* Renumber invariants on random programs, for every mode. *)
let renumber_prop mode =
  QCheck.Test.make ~count:40
    ~name:
      (Printf.sprintf "renumber invariants (%s)" (Remat.Mode.to_string mode))
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let cfg = Cfg.split_critical_edges cfg in
      let rn = Reference.Renumber.run mode cfg in
      let out = rn.Reference.Renumber.cfg in
      (* no φ-nodes survive *)
      (not (Cfg.in_ssa out))
      (* the routine is still valid and equivalent *)
      && (match Iloc.Validate.routine out with Ok () -> true | Error _ -> false)
      && Sim.Interp.outcome_equal (Sim.Interp.run cfg) (Sim.Interp.run out)
      (* every register is tagged Inst or Bottom *)
      && Reg.Set.for_all
           (fun r ->
             match Reg.Tbl.find_opt rn.Reference.Renumber.tags r with
             | Some (Remat.Tag.Inst _ | Remat.Tag.Bottom) -> true
             | Some Remat.Tag.Top | None -> false)
           (Cfg.all_regs out)
      (* split pairs mention registers of the routine, same class *)
      && List.for_all
           (fun (a, b) ->
             Reg.cls_equal (Reg.cls a) (Reg.cls b)
             && Reg.Set.mem a (Cfg.all_regs out)
             && Reg.Set.mem b (Cfg.all_regs out))
           rn.Reference.Renumber.split_pairs
      (* live-range count never exceeds value count *)
      && rn.Reference.Renumber.n_live_ranges <= rn.Reference.Renumber.n_values)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      renumber_prop Mode.No_remat;
      renumber_prop Mode.Chaitin_remat;
      renumber_prop Mode.Briggs_remat;
      renumber_prop Mode.Briggs_remat_phi_splits;
    ]

let () =
  Alcotest.run "edge-cases"
    [ ("degenerate", degenerate_tests); ("renumber-props", props) ]
