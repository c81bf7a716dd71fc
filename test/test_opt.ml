(* Tests for the optimizer substrate: local value numbering, dead-code
   elimination, loop-invariant code motion, and the whole pipeline. *)

module Cfg = Iloc.Cfg
module Instr = Iloc.Instr
module Reg = Iloc.Reg

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let parse = Iloc.Parser.routine

let body_ops cfg =
  Cfg.fold_blocks
    (fun acc b ->
      acc @ List.map (fun (i : Instr.t) -> i.Instr.op) b.Iloc.Block.body)
    [] cfg

let count_op pred cfg =
  List.length (List.filter pred (body_ops cfg))

(* --- LVN --- *)

let lvn_tests =
  [
    tc "redundant expression becomes a copy" (fun () ->
        let cfg =
          parse
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 2\n\
            \  r2 <- ldi 3\n\
            \  r3 <- add r1 r2\n\
            \  r4 <- add r1 r2\n\
            \  r5 <- mul r3 r4\n\
            \  print r5\n\
            \  ret\n"
        in
        ignore (Opt.Lvn.routine cfg);
        (* second add replaced; also both adds fold to constants *)
        check Alcotest.int "no second add" 0
          (count_op (fun o -> o = Instr.Add) cfg);
        Testutil.assert_equiv ~what:"lvn" cfg cfg);
    tc "constants fold" (fun () ->
        let cfg =
          parse
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 6\n\
            \  r2 <- ldi 7\n\
            \  r3 <- mul r1 r2\n\
            \  print r3\n\
            \  ret\n"
        in
        ignore (Opt.Lvn.routine cfg);
        check Alcotest.bool "folded to ldi 42" true
          (List.mem (Instr.Ldi 42) (body_ops cfg)));
    tc "commutativity is canonicalized" (fun () ->
        let cfg =
          parse
            "routine x\n\
             data w[4]\n\
             entry:\n\
            \  r6 <- laddr @w\n\
            \  r1 <- loadi r6 0\n\
            \  r2 <- loadi r6 1\n\
            \  r3 <- add r1 r2\n\
            \  r4 <- add r2 r1\n\
            \  r5 <- mul r3 r4\n\
            \  print r5\n\
            \  ret\n"
        in
        ignore (Opt.Lvn.routine cfg);
        check Alcotest.int "one add left" 1
          (count_op (fun o -> o = Instr.Add) cfg));
    tc "address arithmetic folds to laddr with offset" (fun () ->
        let cfg =
          parse
            "routine x\n\
             data w[8] = { 1 2 3 4 5 6 7 8 }\n\
             entry:\n\
            \  r1 <- laddr @w\n\
            \  r2 <- addi r1 3\n\
            \  r3 <- load r2\n\
            \  print r3\n\
            \  ret\n"
        in
        ignore (Opt.Lvn.routine cfg);
        check Alcotest.bool "laddr @w 3 appears" true
          (List.mem (Instr.Laddr ("w", 3)) (body_ops cfg));
        Testutil.assert_equiv ~what:"laddr fold" cfg cfg);
    tc "frame-pointer arithmetic folds to lfp" (fun () ->
        let cfg =
          parse
            "routine x\n\
             entry:\n\
            \  r1 <- lfp 8\n\
            \  r2 <- addi r1 4\n\
            \  r3 <- sub r2 r1\n\
            \  print r2\n\
            \  print r3\n\
            \  ret\n"
        in
        ignore (Opt.Lvn.routine cfg);
        check Alcotest.bool "lfp 12 appears" true
          (List.mem (Instr.Lfp 12) (body_ops cfg)));
    tc "division by zero constant is not folded" (fun () ->
        let cfg =
          parse
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 5\n\
            \  r2 <- ldi 0\n\
            \  r3 <- div r1 r2\n\
            \  print r3\n\
            \  ret\n"
        in
        ignore (Opt.Lvn.routine cfg);
        check Alcotest.int "div kept" 1 (count_op (fun o -> o = Instr.Div) cfg));
    tc "writable loads are not numbered" (fun () ->
        (* store between identical loads: both loads must survive *)
        let cfg =
          parse
            "routine x\n\
             data w[2] = { 5 6 }\n\
             entry:\n\
            \  r1 <- laddr @w\n\
            \  r2 <- loadi r1 0\n\
            \  r4 <- addi r2 1\n\
            \  storei r4 -> r1 0\n\
            \  r3 <- loadi r1 0\n\
            \  print r2\n\
            \  print r3\n\
            \  ret\n"
        in
        ignore (Opt.Lvn.routine cfg);
        check Alcotest.int "both loads kept" 2
          (count_op (function Instr.Loadi _ -> true | _ -> false) cfg);
        Testutil.assert_equiv ~what:"loads not numbered" cfg cfg);
    tc "register reuse invalidates availability" (fun () ->
        (* r1 is overwritten between the two adds: the second add must
           not become a copy of the stale register *)
        let cfg =
          parse
            "routine x\n\
             data w[4] = { 1 2 3 4 }\n\
             entry:\n\
            \  r9 <- laddr @w\n\
            \  r1 <- loadi r9 0\n\
            \  r2 <- loadi r9 1\n\
            \  r3 <- add r1 r2\n\
            \  r3 <- addi r3 5\n\
            \  r4 <- add r1 r2\n\
            \  print r3\n\
            \  print r4\n\
            \  ret\n"
        in
        let before = Sim.Interp.run cfg in
        ignore (Opt.Lvn.routine cfg);
        let after = Sim.Interp.run cfg in
        check Alcotest.bool "equivalent" true
          (Sim.Interp.outcome_equal before after));
  ]

(* --- DCE --- *)

let dce_tests =
  [
    tc "dead pure code removed" (fun () ->
        let cfg =
          parse
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 1\n\
            \  r2 <- ldi 2\n\
            \  r3 <- add r1 r2\n\
            \  print r1\n\
            \  ret\n"
        in
        check Alcotest.bool "changed" true (Opt.Dce.routine cfg);
        check Alcotest.int "only ldi 1 remains" 1
          (List.length
             (List.filter
                (fun o -> o <> Instr.Print)
                (body_ops cfg))));
    tc "chains die transitively" (fun () ->
        let cfg =
          parse
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 1\n\
            \  r2 <- addi r1 1\n\
            \  r3 <- addi r2 1\n\
            \  ret\n"
        in
        ignore (Opt.Dce.routine cfg);
        check Alcotest.int "empty body" 0 (List.length (body_ops cfg)));
    tc "stores and prints survive" (fun () ->
        let cfg =
          parse
            "routine x\n\
             data w[1]\n\
             entry:\n\
            \  r1 <- ldi 9\n\
            \  r2 <- laddr @w\n\
            \  storei r1 -> r2 0\n\
            \  ret\n"
        in
        check Alcotest.bool "nothing to remove" false (Opt.Dce.routine cfg));
    tc "live-across-blocks values survive" (fun () ->
        let cfg = Testutil.counted_loop () in
        ignore (Opt.Dce.routine cfg);
        Testutil.assert_equiv ~what:"dce loop" cfg (Testutil.counted_loop ()));
  ]

(* --- LICM --- *)

let licm_tests =
  [
    tc "invariant expression hoisted out of loop" (fun () ->
        let cfg =
          parse
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 10\n\
            \  r2 <- ldi 100\n\
            \  r10 <- ldi 0\n\
            \  jmp head\n\
             head:\n\
            \  r3 <- cmp_gt r1 r10\n\
            \  cbr r3 body exit\n\
             body:\n\
            \  r4 <- muli r2 3\n\
            \  r5 <- add r4 r1\n\
            \  r1 <- subi r1 1\n\
            \  jmp head\n\
             exit:\n\
            \  ret\n"
        in
        (* r4 = muli r2 3 is invariant (r2 defined outside, single def);
           after LICM + DCE it must not be inside the loop body block. *)
        let cfg', moved = Opt.Licm.routine cfg in
        check Alcotest.bool "moved" true moved;
        let body_block = Cfg.block cfg' (Cfg.find_label cfg' "body") in
        check Alcotest.bool "muli left the loop" false
          (List.exists
             (fun (i : Instr.t) ->
               match i.Instr.op with Instr.Muli 3 -> true | _ -> false)
             body_block.Iloc.Block.body);
        Testutil.assert_equiv ~what:"licm" cfg cfg');
    tc "loop-varying code stays" (fun () ->
        let cfg = Testutil.counted_loop () in
        let cfg', _ = Opt.Licm.routine cfg in
        Testutil.assert_equiv ~what:"licm counted" cfg cfg';
        (* the accumulator add must still be inside the loop *)
        let dom = Dataflow.Dominance.compute cfg' in
        let loops = Dataflow.Loops.compute cfg' dom in
        let in_loop_add = ref false in
        Cfg.iter_blocks
          (fun b ->
            if loops.Dataflow.Loops.depth.(b.Iloc.Block.id) > 0 then
              List.iter
                (fun (i : Instr.t) ->
                  if i.Instr.op = Instr.Add then in_loop_add := true)
                b.Iloc.Block.body)
          cfg';
        check Alcotest.bool "add still in loop" true !in_loop_add);
    tc "loads from writable memory are not hoisted" (fun () ->
        let cfg =
          parse
            "routine x\n\
             data w[2] = { 1 2 }\n\
             entry:\n\
            \  r1 <- ldi 5\n\
            \  r9 <- laddr @w\n\
            \  r10 <- ldi 0\n\
            \  jmp head\n\
             head:\n\
            \  r3 <- cmp_gt r1 r10\n\
            \  cbr r3 body exit\n\
             body:\n\
            \  r4 <- loadi r9 0\n\
            \  r5 <- addi r4 1\n\
            \  storei r5 -> r9 0\n\
            \  r1 <- subi r1 1\n\
            \  jmp head\n\
             exit:\n\
            \  r6 <- loadi r9 0\n\
            \  print r6\n\
            \  ret\n"
        in
        let cfg', _ = Opt.Licm.routine cfg in
        Testutil.assert_equiv ~what:"licm loads" cfg cfg');
    tc "ldro is hoisted" (fun () ->
        let cfg =
          parse
            "routine x\n\
             data const k[1] = { 44 }\n\
             entry:\n\
            \  r1 <- ldi 5\n\
            \  r10 <- ldi 0\n\
            \  r6 <- ldi 0\n\
            \  jmp head\n\
             head:\n\
            \  r3 <- cmp_gt r1 r10\n\
            \  cbr r3 body exit\n\
             body:\n\
            \  r4 <- ldro @k 0\n\
            \  r6 <- add r6 r4\n\
            \  r1 <- subi r1 1\n\
            \  jmp head\n\
             exit:\n\
            \  print r6\n\
            \  ret\n"
        in
        let cfg', moved = Opt.Licm.routine cfg in
        check Alcotest.bool "moved" true moved;
        let body_block = Cfg.block cfg' (Cfg.find_label cfg' "body") in
        check Alcotest.bool "ldro left the loop" false
          (List.exists
             (fun (i : Instr.t) ->
               match i.Instr.op with Instr.Ldro _ -> true | _ -> false)
             body_block.Iloc.Block.body);
        Testutil.assert_equiv ~what:"licm ldro" cfg cfg');
  ]

(* --- SVN (dominator-scoped value numbering) --- *)

let svn_tests =
  [
    tc "expression available from a dominating block" (fun () ->
        (* r3 = r1 + r2 computed in entry is reused in both arms. *)
        let cfg =
          parse
            "routine x\n\
             data w[4] = { 1 2 3 4 }\n\
             entry:\n\
            \  r9 <- laddr @w\n\
            \  r1 <- loadi r9 0\n\
            \  r2 <- loadi r9 1\n\
            \  r3 <- add r1 r2\n\
            \  r4 <- cmp_lt r1 r2\n\
            \  cbr r4 a b\n\
             a:\n\
            \  r5 <- add r1 r2\n\
            \  print r5\n\
            \  jmp j\n\
             b:\n\
            \  r6 <- add r1 r2\n\
            \  print r6\n\
            \  jmp j\n\
             j:\n\
            \  print r3\n\
            \  ret\n"
        in
        let before = Sim.Interp.run cfg in
        check Alcotest.bool "changed" true (Opt.Svn.routine cfg);
        check Alcotest.int "one add remains" 1
          (count_op (fun o -> o = Instr.Add) cfg);
        check Alcotest.bool "equivalent" true
          (Sim.Interp.outcome_equal before (Sim.Interp.run cfg)));
    tc "availability not inherited across clobbering side paths" (fun () ->
        (* r1 (multi-def) holds the value in entry but arm a overwrites
           it; the join must not reuse r1 for the entry value. *)
        let cfg =
          parse
            "routine x\n\
             data w[4] = { 1 2 3 4 }\n\
             entry:\n\
            \  r9 <- laddr @w\n\
            \  r8 <- loadi r9 0\n\
            \  r1 <- addi r8 5\n\
            \  r4 <- cmp_lt r1 r8\n\
            \  cbr r4 a b\n\
             a:\n\
            \  r1 <- ldi 99\n\
            \  jmp j\n\
             b:\n\
            \  jmp j\n\
             j:\n\
            \  r5 <- addi r8 5\n\
            \  print r1\n\
            \  print r5\n\
            \  ret\n"
        in
        let before = Sim.Interp.run cfg in
        ignore (Opt.Svn.routine cfg);
        check Alcotest.bool "equivalent" true
          (Sim.Interp.outcome_equal before (Sim.Interp.run cfg)));
    tc "svn subsumes lvn locally" (fun () ->
        let mk () =
          parse
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 6\n\
            \  r2 <- ldi 7\n\
            \  r3 <- mul r1 r2\n\
            \  print r3\n\
            \  ret\n"
        in
        let a = mk () and b = mk () in
        ignore (Opt.Lvn.routine a);
        ignore (Opt.Svn.routine b);
        check Alcotest.bool "both fold to 42" true
          (List.mem (Instr.Ldi 42) (body_ops a)
          && List.mem (Instr.Ldi 42) (body_ops b)));
  ]

let svn_prop =
  QCheck.Test.make ~count:80 ~name:"svn preserves random programs"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let before = Sim.Interp.run cfg in
      ignore (Opt.Svn.routine cfg);
      Sim.Interp.outcome_equal before (Sim.Interp.run cfg))

(* --- pipeline --- *)

let pipeline_tests =
  [
    tc "pipeline preserves behaviour on the whole suite" (fun () ->
        List.iter
          (fun k ->
            let plain = Suite.Kernels.cfg_of k in
            let optimized = Suite.Kernels.cfg_of ~optimize:true k in
            Testutil.assert_equiv ~what:k.Suite.Kernels.name plain optimized)
          Suite.Kernels.all);
    tc "pipeline reduces dynamic instruction count" (fun () ->
        let better = ref 0 in
        List.iter
          (fun k ->
            let plain = Suite.Kernels.cfg_of k in
            let optimized = Suite.Kernels.cfg_of ~optimize:true k in
            let dyn cfg =
              Sim.Counts.total_instrs (Sim.Interp.run cfg).Sim.Interp.counts
            in
            if dyn optimized <= dyn plain then incr better)
          Suite.Kernels.all;
        check Alcotest.bool "never worse dynamically" true
          (!better = List.length Suite.Kernels.all));
    tc "optimized suite kernels still allocate correctly" (fun () ->
        List.iter
          (fun k ->
            let cfg = Suite.Kernels.cfg_of ~optimize:true k in
            ignore (Testutil.alloc_equiv ~machine:Remat.Machine.standard cfg))
          Suite.Kernels.all);
    tc "strength reduction produces walking pointers" (fun () ->
        let cfg =
          Frontend.Lower.compile
            "program t\n\
             const n = 8\n\
             real a[8] = { 1.0 2.0 3.0 4.0 5.0 6.0 7.0 8.0 }\n\
             int i\n\
             real s\n\
             s = 0.0\n\
             for i = 0 to n - 1 do\n\
             s = s + a[i]\n\
             end\n\
             print s"
        in
        (* the loop body must read through a plain load, not loadx *)
        check Alcotest.int "no indexed load" 0
          (count_op (fun o -> o = Instr.Loadx) cfg);
        check Alcotest.bool "plain load present" true
          (List.mem Instr.Load (body_ops cfg)));
  ]

(* property: the pipeline is semantics-preserving on random programs *)
let pipeline_prop =
  QCheck.Test.make ~count:80 ~name:"pipeline preserves random programs"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let optimized = Opt.Pipeline.run cfg in
      Sim.Interp.outcome_equal (Sim.Interp.run cfg) (Sim.Interp.run optimized))

(* property: optimized programs still allocate to equivalent code *)
let pipeline_alloc_prop =
  QCheck.Test.make ~count:40 ~name:"optimize + allocate preserves behaviour"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let optimized = Opt.Pipeline.run cfg in
      let res =
        Remat.Allocator.allocate ~machine:Remat.Machine.standard optimized
      in
      Sim.Interp.outcome_equal (Sim.Interp.run cfg)
        (Sim.Interp.run res.Remat.Allocator.cfg))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ svn_prop; pipeline_prop; pipeline_alloc_prop ]

let () =
  Alcotest.run "opt"
    [
      ("lvn", lvn_tests);
      ("svn", svn_tests);
      ("dce", dce_tests);
      ("licm", licm_tests);
      ("pipeline", pipeline_tests);
      ("properties", props);
    ]
