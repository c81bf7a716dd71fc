(* Focused unit tests for the smaller allocator components: machine
   descriptions, modes, phase statistics, spill-code insertion mechanics,
   conservative coalescing, and the Graphviz dumps. *)

module Cfg = Iloc.Cfg
module Reg = Iloc.Reg
module Instr = Iloc.Instr
module Tag = Remat.Tag

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- machine --- *)

let machine_tests =
  [
    tc "standard and huge" (fun () ->
        check Alcotest.int "std int" 16 Remat.Machine.standard.Remat.Machine.k_int;
        check Alcotest.int "std float" 16
          Remat.Machine.standard.Remat.Machine.k_float;
        check Alcotest.int "huge int" 128 Remat.Machine.huge.Remat.Machine.k_int);
    tc "k_for distinguishes classes" (fun () ->
        let m = Remat.Machine.make ~name:"m" ~k_int:7 ~k_float:3 in
        check Alcotest.int "int" 7 (Remat.Machine.k_for m Reg.Int);
        check Alcotest.int "float" 3 (Remat.Machine.k_for m Reg.Float));
    tc "degenerate machines rejected" (fun () ->
        try
          ignore (Remat.Machine.make ~name:"bad" ~k_int:1 ~k_float:16);
          Alcotest.fail "k=1 accepted"
        with Invalid_argument _ -> ());
  ]

(* --- mode --- *)

let mode_tests =
  [
    tc "string round trip" (fun () ->
        List.iter
          (fun m ->
            check Alcotest.bool
              (Remat.Mode.to_string m)
              true
              (Remat.Mode.of_string (Remat.Mode.to_string m) = Some m))
          Remat.Mode.all);
    tc "unknown mode" (fun () ->
        check Alcotest.bool "none" true (Remat.Mode.of_string "x" = None));
    tc "splits classification" (fun () ->
        check Alcotest.bool "chaitin" false (Remat.Mode.splits Remat.Mode.Chaitin_remat);
        check Alcotest.bool "briggs" true (Remat.Mode.splits Remat.Mode.Briggs_remat));
    tc "loop schemes" (fun () ->
        check Alcotest.bool "briggs none" true
          (Remat.Mode.loop_scheme Remat.Mode.Briggs_remat = None);
        check Alcotest.bool "all loops" true
          (Remat.Mode.loop_scheme Remat.Mode.Briggs_split_all_loops
          = Some `All_loops));
    tc "core subset" (fun () ->
        check Alcotest.int "four core modes" 4 (List.length Remat.Mode.core);
        List.iter
          (fun m ->
            check Alcotest.bool "core in all" true (List.mem m Remat.Mode.all))
          Remat.Mode.core);
  ]

(* --- stats --- *)

let stats_tests =
  [
    tc "rows accumulate in order" (fun () ->
        let s = Remat.Stats.create () in
        let r1 = Remat.Stats.time s ~round:1 Remat.Stats.Build (fun () -> 41 + 1) in
        check Alcotest.int "result" 42 r1;
        ignore (Remat.Stats.time s ~round:1 Remat.Stats.Select (fun () -> ()));
        ignore (Remat.Stats.time s ~round:2 Remat.Stats.Build (fun () -> ()));
        let rows = Remat.Stats.rows s in
        check Alcotest.int "three rows" 3 (List.length rows);
        (match rows with
        | [ a; b; c ] ->
            check Alcotest.int "round order" 1 a.Remat.Stats.round;
            check Alcotest.bool "phases" true
              (a.Remat.Stats.phase = Remat.Stats.Build
              && b.Remat.Stats.phase = Remat.Stats.Select
              && c.Remat.Stats.round = 2)
        | _ -> Alcotest.fail "rows");
        check Alcotest.bool "total nonneg" true (Remat.Stats.total s >= 0.));
    tc "time is exception safe" (fun () ->
        let s = Remat.Stats.create () in
        (try
           Remat.Stats.time s ~round:1 Remat.Stats.Spill (fun () ->
               failwith "boom")
         with Failure _ -> ());
        check Alcotest.int "row recorded" 1 (List.length (Remat.Stats.rows s)));
    tc "by_phase merges duplicates" (fun () ->
        let s = Remat.Stats.create () in
        ignore (Remat.Stats.time s ~round:1 Remat.Stats.Build (fun () -> ()));
        ignore (Remat.Stats.time s ~round:1 Remat.Stats.Build (fun () -> ()));
        check Alcotest.int "merged" 1 (List.length (Remat.Stats.by_phase s)));
  ]

(* --- spill code mechanics --- *)

let spill_code_tests =
  let routine () =
    Iloc.Parser.routine
      "routine x\n\
       data const t[2] = { 5 6 }\n\
       entry:\n\
      \  r1 <- laddr @t\n\
      \  r2 <- loadi r1 0\n\
      \  r3 <- addi r2 1\n\
      \  r4 <- add r3 r2\n\
      \  print r4\n\
      \  print r1\n\
      \  ret\n"
  in
  (* The arena rewrite, bridged back to the routine it spliced. *)
  let insert cfg ~tags ~infinite ~spilled ~slot_counter =
    let st, fl =
      Remat.Spill_code.insert_flat (Iloc.Flat.of_routine cfg) ~phis:[||] ~tags
        ~infinite ~spilled ~slots:(Reg.Tbl.create 8) ~slot_counter
    in
    (st, Iloc.Flat.to_routine fl)
  in
  [
    tc "memory spill inserts stores and reloads" (fun () ->
        let cfg = routine () in
        let tags = Reg.Tbl.create 8 in
        let infinite = Reg.Tbl.create 8 in
        let slot_counter = ref 0 in
        let r2 = Reg.make 2 Reg.Int in
        let st, cfg = insert cfg ~tags ~infinite ~spilled:[ r2 ] ~slot_counter in
        check Alcotest.int "one memory lr" 1 st.Remat.Spill_code.memory_lrs;
        check Alcotest.int "one slot" 1 st.Remat.Spill_code.new_slots;
        let spills = ref 0 and reloads = ref 0 in
        Cfg.iter_instrs
          (fun _ i ->
            match i.Instr.op with
            | Instr.Spill _ -> incr spills
            | Instr.Reload _ -> incr reloads
            | _ -> ())
          cfg;
        check Alcotest.int "one store (one def)" 1 !spills;
        check Alcotest.int "two reloads (two uses)" 2 !reloads;
        Testutil.assert_equiv ~what:"memory spill" (routine ()) cfg);
    tc "remat spill deletes the def and re-creates at uses" (fun () ->
        let cfg = routine () in
        let tags = Reg.Tbl.create 8 in
        let r1 = Reg.make 1 Reg.Int in
        Reg.Tbl.replace tags r1 (Tag.Inst (Instr.Laddr ("t", 0)));
        let infinite = Reg.Tbl.create 8 in
        let slot_counter = ref 0 in
        let st, cfg = insert cfg ~tags ~infinite ~spilled:[ r1 ] ~slot_counter in
        check Alcotest.int "one remat lr" 1 st.Remat.Spill_code.remat_lrs;
        check Alcotest.int "no slots" 0 st.Remat.Spill_code.new_slots;
        (* r1 must no longer appear; two fresh laddr sites must exist
           (the loadi use and the print use) on top of zero spills *)
        let laddrs = ref 0 in
        Cfg.iter_instrs
          (fun _ i ->
            (match i.Instr.op with
            | Instr.Laddr ("t", 0) -> incr laddrs
            | Instr.Spill _ | Instr.Reload _ ->
                Alcotest.fail "memory traffic for a never-killed value"
            | _ -> ());
            List.iter
              (fun r ->
                if Reg.equal r r1 then Alcotest.fail "r1 still referenced")
              (Instr.defs i @ Instr.uses i))
          cfg;
        check Alcotest.int "laddr per use" 2 !laddrs;
        Testutil.assert_equiv ~what:"remat spill" (routine ()) cfg);
    tc "spilling a temporary raises" (fun () ->
        let cfg = routine () in
        let tags = Reg.Tbl.create 8 in
        let infinite = Reg.Tbl.create 8 in
        let r2 = Reg.make 2 Reg.Int in
        Reg.Tbl.replace infinite r2 ();
        try
          ignore
            (insert cfg ~tags ~infinite ~spilled:[ r2 ] ~slot_counter:(ref 0));
          Alcotest.fail "temp spill accepted"
        with Remat.Spill_code.Pressure_too_high _ -> ());
  ]

(* --- conservative coalescing criterion --- *)

(* A context on [cfg], its first round's graph and its worklist. *)
let round_of ?(split_pairs = []) cfg =
  let dom = Dataflow.Dominance.compute cfg in
  let loops = Dataflow.Loops.compute cfg dom in
  let ctx =
    Remat.Context.create ~mode:Remat.Mode.Briggs_remat
      ~machine:(Remat.Machine.make ~name:"test4" ~k_int:4 ~k_float:4)
      ~loops ~order:(Dataflow.Dominance.postorder dom) ~tags:(Reg.Tbl.create 4)
      ~split_pairs ~stats:(Remat.Stats.create ()) (Iloc.Flat.of_routine cfg)
  in
  let g = Remat.Allocator.build ctx in
  (ctx, g, Remat.Coalesce.worklist ctx g)

let coalesce_tests =
  [
    tc "unrestricted pass skips split copies" (fun () ->
        let cfg =
          Iloc.Parser.routine
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 1\n\
            \  r2 <- copy r1\n\
            \  print r2\n\
            \  ret\n"
        in
        let r1 = Reg.make 1 Reg.Int and r2 = Reg.make 2 Reg.Int in
        let ctx, g, wl = round_of ~split_pairs:[ (r2, r1) ] cfg in
        let o = Remat.Coalesce.pass Remat.Coalesce.Unrestricted ctx g wl in
        check Alcotest.bool "unchanged" false o.Remat.Coalesce.changed);
    tc "conservative pass coalesces safe splits" (fun () ->
        let cfg =
          Iloc.Parser.routine
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 1\n\
            \  r2 <- copy r1\n\
            \  print r2\n\
            \  ret\n"
        in
        let r1 = Reg.make 1 Reg.Int and r2 = Reg.make 2 Reg.Int in
        let ctx, g, wl = round_of ~split_pairs:[ (r2, r1) ] cfg in
        let o = Remat.Coalesce.pass Remat.Coalesce.Conservative ctx g wl in
        check Alcotest.bool "changed" true o.Remat.Coalesce.changed;
        check Alcotest.int "one coalesce" 1 o.Remat.Coalesce.coalesced;
        (* Split pairs go back to registers once, with the rewrite
           after the round's last sweep. *)
        Remat.Coalesce.rewrite ctx g wl;
        check Alcotest.int "pair dropped" 0
          (List.length ctx.Remat.Context.split_pairs);
        let copies = ref 0 in
        Cfg.iter_instrs
          (fun _ i -> if Instr.is_copy i then incr copies)
          (Iloc.Flat.to_routine (Remat.Context.flat ctx));
        check Alcotest.int "copy removed" 0 !copies);
    tc "interfering copy is never coalesced" (fun () ->
        (* r1 still used after r2 is redefined-from... here r1 and r2 are
           simultaneously live after the copy, so they interfere (the
           copy redefinition pattern): r2 <- copy r1; r2 <- addi r2;
           print both. *)
        let cfg =
          Iloc.Parser.routine
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 1\n\
            \  r2 <- copy r1\n\
            \  r2 <- addi r2 1\n\
            \  print r1\n\
            \  print r2\n\
            \  ret\n"
        in
        let ctx, g, wl = round_of cfg in
        let o = Remat.Coalesce.pass Remat.Coalesce.Unrestricted ctx g wl in
        check Alcotest.bool "unchanged" false o.Remat.Coalesce.changed);
  ]

(* --- graphviz dumps --- *)

let dump_tests =
  [
    tc "cfg dot shape" (fun () ->
        let text = Iloc.Dot.cfg_to_string (Testutil.diamond ()) in
        List.iter
          (fun frag ->
            check Alcotest.bool frag true (contains text frag))
          [ "digraph"; "b0 -> b1"; "b0 -> b2"; "b1 -> b3"; "shape=record" ]);
    tc "interference dot shape" (fun () ->
        let cfg = Testutil.high_pressure () in
        let live = Testutil.liveness cfg in
        let g = Reference.Interference.build cfg live in
        let text = Remat.Dump.interference_to_string g in
        check Alcotest.bool "graph" true (contains text "graph interference");
        check Alcotest.bool "edges" true (contains text " -- "));
  ]

(* --- reproducibility --- *)

let determinism_tests =
  [
    tc "allocation is deterministic" (fun () ->
        List.iter
          (fun name ->
            let kernel = Suite.Kernels.find name in
            let text () =
              let cfg = Suite.Kernels.cfg_of ~optimize:true kernel in
              let res =
                Remat.Allocator.allocate ~machine:Remat.Machine.standard cfg
              in
              Iloc.Printer.routine_to_string res.Remat.Allocator.cfg
            in
            check Alcotest.string (name ^ " stable") (text ()) (text ()))
          [ "fehl"; "tomcatv"; "ptrsweep" ]);
    tc "optimization pipeline is idempotent" (fun () ->
        List.iter
          (fun name ->
            let kernel = Suite.Kernels.find name in
            let once = Suite.Kernels.cfg_of ~optimize:true kernel in
            let twice = Opt.Pipeline.run once in
            check Alcotest.string (name ^ " fixpoint")
              (Iloc.Printer.routine_to_string once)
              (Iloc.Printer.routine_to_string twice))
          [ "fehl"; "sgemm"; "bsearch"; "lfk7" ]);
    tc "interpreter is deterministic" (fun () ->
        let cfg = Suite.Kernels.cfg_of (Suite.Kernels.find "svd") in
        check Alcotest.bool "same outcome" true
          (Sim.Interp.outcome_equal (Sim.Interp.run cfg) (Sim.Interp.run cfg)));
  ]

let () =
  Alcotest.run "components"
    [
      ("machine", machine_tests);
      ("mode", mode_tests);
      ("stats", stats_tests);
      ("spill-code", spill_code_tests);
      ("coalesce", coalesce_tests);
      ("dump", dump_tests);
      ("determinism", determinism_tests);
    ]
