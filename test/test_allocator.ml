(* End-to-end allocator tests: correctness under every mode and several
   register budgets, plus the paper's qualitative claims on Figure 1. *)

module Cfg = Iloc.Cfg
module Reg = Iloc.Reg
module Instr = Iloc.Instr
module Mode = Remat.Mode
module Machine = Remat.Machine

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let machines =
  [
    Machine.make ~name:"tiny" ~k_int:6 ~k_float:4;
    Machine.make ~name:"small" ~k_int:8 ~k_float:8;
    Machine.standard;
    Machine.huge;
  ]

let correctness =
  [
    tc "all fixtures, all modes, all machines" (fun () ->
        List.iter
          (fun (name, cfg) ->
            List.iter
              (fun mode ->
                List.iter
                  (fun machine ->
                    let what =
                      Printf.sprintf "%s/%s/%s" name (Mode.to_string mode)
                        machine.Machine.name
                    in
                    try ignore (Testutil.alloc_equiv ~mode ~machine cfg)
                    with
                    | Remat.Spill_code.Pressure_too_high _ ->
                        Alcotest.failf "%s: pressure too high" what)
                  machines)
              Mode.all)
          (Testutil.all_fixed ()));
    tc "huge machine never spills fixtures" (fun () ->
        List.iter
          (fun (name, cfg) ->
            let res = Testutil.alloc ~machine:Machine.huge cfg in
            check Alcotest.int (name ^ " rounds") 1 res.Remat.Allocator.rounds;
            check Alcotest.int (name ^ " memory spills") 0
              res.Remat.Allocator.spilled_memory)
          (Testutil.all_fixed ()));
    tc "standard machine forces spills on fig1" (fun () ->
        let res =
          Testutil.alloc ~mode:Mode.Chaitin_remat ~machine:Machine.standard
            (Testutil.fig1 ())
        in
        check Alcotest.bool "some spilling happened" true
          (res.Remat.Allocator.rounds > 1));
    tc "allocated registers within machine bounds" (fun () ->
        let machine = Machine.make ~name:"m" ~k_int:7 ~k_float:5 in
        let res = Testutil.alloc ~machine (Testutil.fig1 ()) in
        Cfg.iter_instrs
          (fun _ i ->
            List.iter
              (fun r ->
                let k =
                  match Reg.cls r with Reg.Int -> 7 | Reg.Float -> 5
                in
                check Alcotest.bool "bounded" true (Reg.id r < k))
              (Instr.defs i @ Instr.uses i))
          res.Remat.Allocator.cfg);
    tc "invalid input rejected" (fun () ->
        let src = "routine x\nentry:\n  r2 <- addi r1 1\n  ret\n" in
        try
          ignore (Remat.Allocator.allocate (Iloc.Parser.routine src));
          Alcotest.fail "invalid routine accepted"
        with Remat.Allocator.Allocation_error _ -> ());
    tc "input routine not mutated" (fun () ->
        let cfg = Testutil.fig1 () in
        let before = Iloc.Printer.routine_to_string cfg in
        ignore (Remat.Allocator.allocate cfg);
        check Alcotest.string "unchanged" before
          (Iloc.Printer.routine_to_string cfg));
  ]

(* A source holding spill code is outside what either family can
   allocate: every entry point refuses it, naming the spill. *)
let refusal =
  [
    tc "pre-spilled source refused by every entry point, every mode"
      (fun () ->
        let pre = Iloc.Parser.routine Testutil.pre_spilled_text in
        let refused what f =
          match f () with
          | _ -> Alcotest.failf "%s: allocated a pre-spilled source" what
          | exception Remat.Allocator.Allocation_error msg ->
              if
                not (String.starts_with ~prefix:Testutil.pre_spilled_refusal msg)
              then
                Alcotest.failf "%s: refusal does not start %S: %s" what
                  Testutil.pre_spilled_refusal msg
        in
        List.iter
          (fun mode ->
            let m = Mode.to_string mode in
            refused (m ^ " allocate") (fun () ->
                ignore (Remat.Allocator.allocate ~verify:true ~mode pre));
            refused (m ^ " allocate_snapshot") (fun () ->
                ignore (Remat.Allocator.allocate_snapshot ~mode pre));
            match
              snd (Remat.Allocator.allocate_snapshot ~mode
                     (Testutil.counted_loop ()))
            with
            | None -> ()
            | Some snap ->
                refused (m ^ " allocate_incremental") (fun () ->
                    ignore (Remat.Allocator.allocate_incremental snap pre)))
          Mode.all);
  ]

(* Dynamic spill cost: cycles on the target machine minus cycles on the
   huge machine, following §5.2. *)
let spill_cost_of mode machine cfg =
  let target = Testutil.alloc ~mode ~machine cfg in
  let huge = Testutil.alloc ~mode ~machine:Machine.huge cfg in
  let ct = (Testutil.run_ok target.Remat.Allocator.cfg).Sim.Interp.counts in
  let ch = (Testutil.run_ok huge.Remat.Allocator.cfg).Sim.Interp.counts in
  Sim.Counts.cycles_signed (Sim.Counts.sub ct ch)

let quality =
  [
    tc "rematerialization beats chaitin on figure 1" (fun () ->
        let cfg = Testutil.fig1 () in
        let chaitin = spill_cost_of Mode.Chaitin_remat Machine.standard cfg in
        let briggs = spill_cost_of Mode.Briggs_remat Machine.standard cfg in
        check Alcotest.bool
          (Printf.sprintf "briggs %d < chaitin %d" briggs chaitin)
          true (briggs < chaitin));
    tc "rematerialization trades loads for load-immediates" (fun () ->
        let cfg = Testutil.fig1 () in
        let run mode =
          let res = Testutil.alloc ~mode ~machine:Machine.standard cfg in
          (Testutil.run_ok res.Remat.Allocator.cfg).Sim.Interp.counts
        in
        let c = run Mode.Chaitin_remat and b = run Mode.Briggs_remat in
        check Alcotest.bool "fewer loads" true
          (Sim.Counts.get b Instr.Cat_load < Sim.Counts.get c Instr.Cat_load));
    tc "remat spills produce no stores for never-killed values" (fun () ->
        (* Allocate a routine whose only spill candidates are label
           addresses: the Briggs allocator must not store them. *)
        let b = Iloc.Builder.create "addresses" in
        let n = 20 in
        List.iteri
          (fun i name ->
            Iloc.Builder.data b ~readonly:true
              ~init:(Iloc.Symbol.Int_elts [ i + 1 ])
              name 1)
          (List.init n (fun i -> Printf.sprintf "s%d" i));
        let addrs = List.init n (fun _ -> Iloc.Builder.ireg b) in
        let acc = Iloc.Builder.ireg b in
        let v = Iloc.Builder.ireg b in
        Iloc.Builder.block b "entry"
          (List.concat
             (List.mapi
                (fun i a -> [ Instr.laddr a (Printf.sprintf "s%d" i) ])
                addrs)
          @ [ Instr.ldi acc 0 ]
          @ List.concat_map
              (fun a -> [ Instr.loadi v a 0; Instr.add acc acc v ])
              addrs
          @ [ Instr.print_ acc ])
          ~term:(Instr.ret (Some acc));
        let cfg = Iloc.Builder.finish b in
        let machine = Machine.make ~name:"m8" ~k_int:8 ~k_float:4 in
        let res = Testutil.alloc_equiv ~mode:Mode.Briggs_remat ~machine cfg in
        check Alcotest.bool "rematerialized some" true
          (res.Remat.Allocator.spilled_remat > 0);
        check Alcotest.int "no memory spills" 0
          res.Remat.Allocator.spilled_memory;
        (* And the allocated code contains no spill/reload at all. *)
        Cfg.iter_instrs
          (fun _ i ->
            match i.Instr.op with
            | Instr.Spill _ | Instr.Reload _ ->
                Alcotest.fail "memory spill of a never-killed value"
            | _ -> ())
          res.Remat.Allocator.cfg);
    tc "coalescing removes copies" (fun () ->
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  r2 <- copy r1\n\
          \  r3 <- addi r2 4\n\
          \  r4 <- copy r3\n\
          \  print r4\n\
          \  ret\n"
        in
        let cfg = Iloc.Parser.routine src in
        (* The first copy joins two values with identical inst tags, so
           renumber itself removes it (step 5); the second is ordinary and
           must be coalesced. *)
        let res = Testutil.alloc_equiv cfg in
        check Alcotest.bool "copies coalesced" true
          (res.Remat.Allocator.coalesced_copies >= 1);
        let copies = ref 0 in
        Cfg.iter_instrs
          (fun _ i -> if Instr.is_copy i then incr copies)
          res.Remat.Allocator.cfg;
        check Alcotest.int "no copies left" 0 !copies);
    tc "phase stats recorded" (fun () ->
        let res = Testutil.alloc (Testutil.fig1 ()) in
        let rows = Remat.Stats.rows res.Remat.Allocator.stats in
        check Alcotest.bool "has cfa" true
          (List.exists (fun r -> r.Remat.Stats.phase = Remat.Stats.Cfa) rows);
        check Alcotest.bool "has renum" true
          (List.exists (fun r -> r.Remat.Stats.phase = Remat.Stats.Renum) rows);
        check Alcotest.bool "has build" true
          (List.exists (fun r -> r.Remat.Stats.phase = Remat.Stats.Build) rows);
        check Alcotest.bool "nonnegative" true
          (List.for_all (fun r -> r.Remat.Stats.seconds >= 0.) rows);
        (* One control-flow analysis per allocation, in round 0, in
           every mode, cold and snapshotting, on a routine that spills
           over several rounds at 6+6. *)
        let cfg = Suite.Kernels.cfg_of ~optimize:true (Suite.Kernels.find "tomcatv") in
        let machine = Machine.make ~name:"6+6" ~k_int:6 ~k_float:6 in
        List.iter
          (fun mode ->
            let name = Mode.to_string mode in
            let cold = Remat.Allocator.allocate ~mode ~machine cfg in
            check Alcotest.bool (name ^ ": spills") true
              (cold.Remat.Allocator.rounds > 1);
            check (Alcotest.list Alcotest.int) (name ^ ": cold cfa rows") [ 0 ]
              (Testutil.cfa_rounds cold.Remat.Allocator.stats);
            let snap, _ = Remat.Allocator.allocate_snapshot ~mode ~machine cfg in
            check (Alcotest.list Alcotest.int)
              (name ^ ": snapshot cfa rows") [ 0 ]
              (Testutil.cfa_rounds snap.Remat.Allocator.stats))
          Mode.all);
  ]

(* --- the local-allocator baseline (§5.4's reference point) --- *)

let local_alloc =
  [
    tc "local allocation preserves behaviour on fixtures" (fun () ->
        List.iter
          (fun (name, cfg) ->
            List.iter
              (fun machine ->
                let res = Remat.Local_allocator.run ~machine cfg in
                (match Iloc.Validate.routine res.Remat.Local_allocator.cfg with
                | Ok () -> ()
                | Error es ->
                    Alcotest.failf "%s: local allocation invalid: %s" name
                      (String.concat "; "
                         (List.map Iloc.Validate.error_to_string es)));
                Testutil.assert_equiv ~what:(name ^ " local") cfg
                  res.Remat.Local_allocator.cfg)
              [ Machine.make ~name:"min" ~k_int:4 ~k_float:2; Machine.standard ])
          (Testutil.all_fixed ()));
    tc "local allocation stays within machine registers" (fun () ->
        let machine = Machine.make ~name:"m" ~k_int:5 ~k_float:3 in
        let res = Remat.Local_allocator.run ~machine (Testutil.fig1 ()) in
        Cfg.iter_instrs
          (fun _ i ->
            List.iter
              (fun r ->
                check Alcotest.bool "bounded" true
                  (Reg.id r < Machine.k_for machine (Reg.cls r)))
              (Instr.defs i @ Instr.uses i))
          res.Remat.Local_allocator.cfg);
    tc "local allocation works on the whole suite" (fun () ->
        List.iter
          (fun k ->
            let cfg = Suite.Kernels.cfg_of k in
            let res = Remat.Local_allocator.run cfg in
            Testutil.assert_equiv
              ~what:(k.Suite.Kernels.name ^ " local")
              cfg res.Remat.Local_allocator.cfg)
          Suite.Kernels.all);
    tc "global allocation beats local allocation" (fun () ->
        (* "global optimizations require global register allocation":
           the local allocator pays block-boundary stores and on-demand
           reloads that the coloring allocator avoids. *)
        let worse = ref 0 and total = ref 0 in
        List.iter
          (fun k ->
            let cfg = Suite.Kernels.cfg_of ~optimize:true k in
            let local = Remat.Local_allocator.run cfg in
            let global = Testutil.alloc ~machine:Machine.standard cfg in
            let cycles c =
              Sim.Counts.cycles (Testutil.run_ok c).Sim.Interp.counts
            in
            incr total;
            if
              cycles local.Remat.Local_allocator.cfg
              >= cycles global.Remat.Allocator.cfg
            then incr worse)
          Suite.Kernels.all;
        check Alcotest.bool
          (Printf.sprintf "local never better (%d/%d)" !worse !total)
          true (!worse = !total));
    tc "too few registers rejected" (fun () ->
        try
          ignore
            (Remat.Local_allocator.run
               ~machine:(Machine.make ~name:"tiny" ~k_int:3 ~k_float:2)
               (Testutil.straight ()));
          Alcotest.fail "k=3 accepted"
        with Remat.Local_allocator.Too_few_registers _ -> ());
  ]

let local_prop =
  QCheck.Test.make ~count:60 ~name:"local allocation preserves random programs"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let res =
        Remat.Local_allocator.run
          ~machine:(Machine.make ~name:"m" ~k_int:5 ~k_float:3)
          cfg
      in
      Sim.Interp.outcome_equal (Sim.Interp.run cfg)
        (Sim.Interp.run res.Remat.Local_allocator.cfg))

let () =
  Alcotest.run "allocator"
    [
      ("correctness", correctness);
      ("refusal", refusal);
      ("quality", quality);
      ("local-baseline", local_alloc);
      ("local-props", List.map QCheck_alcotest.to_alcotest [ local_prop ]);
    ]
