(* Tests for lib/verify, the static translation validator.

   Three layers: clean allocations across fixtures/modes/machines must
   verify; hand-built allocated routines with planted mistakes must be
   rejected with errors naming the fault; and the two spill-code fault
   injections must be rejected statically — with no simulator run — one
   of them even though the dynamic oracle's inputs cannot see it. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

module Cfg = Iloc.Cfg
module Instr = Iloc.Instr
module Reg = Iloc.Reg
module Block = Iloc.Block
module Builder = Iloc.Builder

let verify ?(machine = Remat.Machine.standard) input output =
  Verify.Check.routine ~input ~output ~k_int:machine.Remat.Machine.k_int
    ~k_float:machine.Remat.Machine.k_float

let assert_verified ~what ?machine input output =
  match verify ?machine input output with
  | Ok _ -> ()
  | Error es ->
      Alcotest.failf "%s: static verifier rejected a sound allocation:\n%s"
        what
        (String.concat "\n" (List.map Verify.Error.to_string es))

let alloc_verified ~what ?mode ?machine input =
  let res = Remat.Allocator.allocate ?mode ?machine input in
  assert_verified ~what ?machine input res.Remat.Allocator.cfg;
  res

(* --- clean allocations verify --- *)

let tiny = Remat.Machine.make ~name:"tiny" ~k_int:4 ~k_float:4

let fixture_tests =
  [
    tc "every fixture, mode and machine verifies" (fun () ->
        List.iter
          (fun (name, cfg) ->
            List.iter
              (fun mode ->
                List.iter
                  (fun machine ->
                    let what =
                      Printf.sprintf "%s under %s@%d/%d" name
                        (Remat.Mode.to_string mode)
                        machine.Remat.Machine.k_int
                        machine.Remat.Machine.k_float
                    in
                    match
                      alloc_verified ~what ~mode ~machine cfg
                    with
                    | _ -> ()
                    | exception Remat.Spill_code.Pressure_too_high _ ->
                        (* A legitimate refusal on the smallest machine
                           is not a verification failure. *)
                        ())
                  [ Remat.Machine.standard; Remat.Machine.huge; tiny ])
              Remat.Mode.all)
          (Testutil.all_fixed ()));
    tc "allocate ~verify:true accepts the fixtures" (fun () ->
        List.iter
          (fun (_, cfg) ->
            ignore (Remat.Allocator.allocate ~verify:true cfg))
          (Testutil.all_fixed ()));
    tc "generated routines verify across modes and machines" (fun () ->
        for seed = 0 to 39 do
          let cfg = Fuzz.Gen.generate seed in
          List.iter
            (fun mode ->
              List.iter
                (fun machine ->
                  let what =
                    Printf.sprintf "seed %d under %s@%d/%d" seed
                      (Remat.Mode.to_string mode) machine.Remat.Machine.k_int
                      machine.Remat.Machine.k_float
                  in
                  ignore (alloc_verified ~what ~mode ~machine cfg))
                [ Remat.Machine.standard; Fuzz.Oracle.tight ])
            Remat.Mode.all
        done);
    tc "high-pressure generated routines verify" (fun () ->
        for seed = 0 to 9 do
          let cfg = Fuzz.Gen.generate ~config:Fuzz.Gen.high_pressure seed in
          List.iter
            (fun mode ->
              let what =
                Printf.sprintf "high-pressure seed %d under %s" seed
                  (Remat.Mode.to_string mode)
              in
              ignore
                (alloc_verified ~what ~mode ~machine:Fuzz.Oracle.tight cfg))
            Remat.Mode.core
        done);
  ]

(* --- hand-built accept/reject --- *)

(* input:  v2 := 1 + 2, printed and returned.
   output: the same computation on two physical registers. *)
let hand_input () =
  let v0 = Reg.make 10 Reg.Int
  and v1 = Reg.make 11 Reg.Int
  and v2 = Reg.make 12 Reg.Int in
  Cfg.make ~name:"hand"
    [
      Block.make ~id:0 ~label:"entry"
        ~body:
          [
            Instr.ldi v0 1; Instr.ldi v1 2; Instr.add v2 v0 v1;
            Instr.print_ v2;
          ]
        ~term:(Instr.ret (Some v2)) ();
    ]

let hand_output body ~ret =
  Cfg.make ~name:"hand"
    [ Block.make ~id:0 ~label:"entry" ~body ~term:(Instr.ret ret) () ]

let r0 = Reg.make 0 Reg.Int
let r1 = Reg.make 1 Reg.Int

let hand_tests =
  [
    tc "faithful hand allocation is accepted with counters" (fun () ->
        let output =
          hand_output
            [
              Instr.ldi r0 1; Instr.ldi r1 2; Instr.add r0 r0 r1;
              Instr.print_ r0;
            ]
            ~ret:(Some r0)
        in
        match verify (hand_input ()) output with
        | Error es ->
            Alcotest.failf "rejected: %s"
              (String.concat "; " (List.map Verify.Error.to_string es))
        | Ok r ->
            check Alcotest.int "blocks" 1 r.Verify.Check.blocks_checked;
            check Alcotest.int "matched" 2 r.Verify.Check.instrs_matched;
            (* add (2) + print (1) + ret (1) *)
            check Alcotest.int "uses" 4 r.Verify.Check.uses_checked;
            check Alcotest.int "remats" 2 r.Verify.Check.remats_checked);
    tc "swapped operand is rejected at the faulty instruction" (fun () ->
        let output =
          hand_output
            [
              Instr.ldi r0 1; Instr.ldi r1 2;
              (* operand 0 should carry v10's value (1), not v11's *)
              Instr.add r0 r1 r1; Instr.print_ r0;
            ]
            ~ret:(Some r0)
        in
        match verify (hand_input ()) output with
        | Ok _ -> Alcotest.fail "verifier accepted a wrong operand"
        | Error es ->
            let e = List.hd es in
            check Alcotest.string "kind" "wrong-value"
              (Verify.Error.kind_to_string e.Verify.Error.kind);
            check
              Alcotest.(option string)
              "block" (Some "entry") e.Verify.Error.block;
            check Alcotest.(option int) "index" (Some 2) e.Verify.Error.index);
    tc "wrong rematerialized constant is rejected" (fun () ->
        let output =
          hand_output
            [
              Instr.ldi r0 1; Instr.ldi r1 3 (* should be 2 *);
              Instr.add r0 r0 r1; Instr.print_ r0;
            ]
            ~ret:(Some r0)
        in
        match verify (hand_input ()) output with
        | Ok _ -> Alcotest.fail "verifier accepted a wrong constant"
        | Error es ->
            let e = List.hd es in
            check Alcotest.string "kind" "wrong-value"
              (Verify.Error.kind_to_string e.Verify.Error.kind);
            check Alcotest.(option int) "index" (Some 2) e.Verify.Error.index);
    tc "spill/reload slot agreement is required" (fun () ->
        (* Spill r0 to slot 0 but reload from slot 1. *)
        let output =
          hand_output
            [
              Instr.ldi r0 1; Instr.spill r0 0; Instr.ldi r1 2;
              Instr.reload r0 1; Instr.add r0 r0 r1; Instr.print_ r0;
            ]
            ~ret:(Some r0)
        in
        match verify (hand_input ()) output with
        | Ok _ -> Alcotest.fail "verifier accepted a skewed reload"
        | Error es ->
            let e = List.hd es in
            check Alcotest.string "kind" "wrong-value"
              (Verify.Error.kind_to_string e.Verify.Error.kind));
    tc "matching spill/reload through a slot is accepted" (fun () ->
        let output =
          hand_output
            [
              Instr.ldi r0 1; Instr.spill r0 0; Instr.ldi r1 2;
              Instr.reload r0 0; Instr.add r0 r0 r1; Instr.print_ r0;
            ]
            ~ret:(Some r0)
        in
        assert_verified ~what:"spill round trip" (hand_input ()) output);
    tc "dropped computation is rejected as unmatched" (fun () ->
        let output =
          hand_output
            [ Instr.ldi r0 1; Instr.ldi r1 2; Instr.print_ r0 ]
            ~ret:(Some r0)
        in
        match verify (hand_input ()) output with
        | Ok _ -> Alcotest.fail "verifier accepted a dropped instruction"
        | Error es ->
            check Alcotest.bool "some unmatched error" true
              (List.exists
                 (fun (e : Verify.Error.t) ->
                   e.Verify.Error.kind = Verify.Error.Unmatched)
                 es));
    tc "register above k is rejected" (fun () ->
        let big = Reg.make 9 Reg.Int in
        let output =
          hand_output
            [
              Instr.ldi r0 1; Instr.ldi big 2; Instr.add r0 r0 big;
              Instr.print_ r0;
            ]
            ~ret:(Some r0)
        in
        let machine = Remat.Machine.make ~name:"k4" ~k_int:4 ~k_float:4 in
        match verify ~machine (hand_input ()) output with
        | Ok _ -> Alcotest.fail "verifier accepted r9 on a 4-register machine"
        | Error es ->
            check Alcotest.bool "over-k reported" true
              (List.exists
                 (fun (e : Verify.Error.t) ->
                   e.Verify.Error.kind = Verify.Error.Over_k)
                 es));
    tc "branch retarget is rejected" (fun () ->
        let v = Reg.make 10 Reg.Int in
        let input =
          Cfg.make ~name:"branchy"
            [
              Block.make ~id:0 ~label:"entry" ~body:[ Instr.ldi v 1 ]
                ~term:(Instr.cbr v "a" "b") ();
              Block.make ~id:1 ~label:"a" ~body:[ Instr.print_ v ]
                ~term:(Instr.ret None) ();
              Block.make ~id:2 ~label:"b" ~body:[]
                ~term:(Instr.ret None) ();
            ]
        in
        let output =
          Cfg.make ~name:"branchy"
            [
              Block.make ~id:0 ~label:"entry" ~body:[ Instr.ldi r0 1 ]
                ~term:(Instr.cbr r0 "b" "a") (* arms swapped *) ();
              Block.make ~id:1 ~label:"a" ~body:[ Instr.print_ r0 ]
                ~term:(Instr.ret None) ();
              Block.make ~id:2 ~label:"b" ~body:[]
                ~term:(Instr.ret None) ();
            ]
        in
        match verify input output with
        | Ok _ -> Alcotest.fail "verifier accepted swapped branch arms"
        | Error es ->
            check Alcotest.bool "structure error" true
              (List.exists
                 (fun (e : Verify.Error.t) ->
                   e.Verify.Error.kind = Verify.Error.Structure)
                 es));
  ]

(* --- the two planted spill-code faults, caught with no simulator --- *)

let with_fault cell v f =
  cell := v;
  Fun.protect ~finally:(fun () -> cell := 0) f

(* A routine whose spilled integer constant feeds only a comparison it
   can never tip: the sum of m's elements stays far below both 100000
   and 100001, so the dynamic outcome is identical with and without the
   remat bias — only the static checker sees the drift. *)
let bias_victim ?(n = 14) () =
  let b = Builder.create "bias_victim" in
  Builder.data b ~readonly:false
    ~init:(Iloc.Symbol.Int_elts (List.init n (fun i -> i + 1)))
    "m" n;
  let limit = Builder.ireg b in
  let base = Builder.ireg b in
  let vs = List.init n (fun _ -> Builder.ireg b) in
  let acc = Builder.ireg b in
  let t = Builder.ireg b in
  Builder.block b "entry"
    ([ Instr.ldi limit 100000; Instr.laddr base "m" ]
    @ List.concat (List.mapi (fun k v -> [ Instr.loadi v base k ]) vs)
    @ (Instr.ldi acc 0 :: List.map (fun v -> Instr.add acc acc v) vs)
    @ [ Instr.cmp Instr.Lt t acc limit ])
    ~term:(Instr.cbr t "small" "big");
  Builder.block b "small" [ Instr.print_ acc ] ~term:(Instr.ret (Some acc));
  Builder.block b "big" [ Instr.print_ acc ] ~term:(Instr.ret (Some acc));
  Builder.finish b

let static_only reference cfg machine mode =
  (* Allocate and split the oracle's verdict into its static and dynamic
     halves: returns (static rejection?, dynamic divergence?). *)
  let res = Remat.Allocator.allocate ~mode ~machine cfg in
  let out = res.Remat.Allocator.cfg in
  let static =
    match
      Verify.Check.routine ~input:cfg ~output:out
        ~k_int:machine.Remat.Machine.k_int
        ~k_float:machine.Remat.Machine.k_float
    with
    | Ok _ -> None
    | Error es -> Some es
  in
  let dynamic =
    match Sim.Interp.run out with
    | outcome ->
        if Sim.Interp.outcome_equal reference outcome then None
        else Some "wrong outcome"
    | exception Sim.Interp.Runtime_error m -> Some m
  in
  (res, static, dynamic)

let planted_tests =
  [
    tc "reload skew is rejected statically, no simulator" (fun () ->
        let cfg = Testutil.high_pressure () in
        with_fault Remat.Spill_code.fault_reload_skew 1 (fun () ->
            let res = Remat.Allocator.allocate ~machine:tiny cfg in
            check Alcotest.bool "scenario spills through memory" true
              (res.Remat.Allocator.spilled_memory > 0);
            match
              verify ~machine:tiny cfg res.Remat.Allocator.cfg
            with
            | Ok _ -> Alcotest.fail "verifier accepted the skewed reloads"
            | Error es ->
                let e = List.hd es in
                check Alcotest.bool "fault is located" true
                  (e.Verify.Error.block <> None
                  && e.Verify.Error.index <> None)));
    tc "allocate ~verify:true raises on the reload skew" (fun () ->
        let cfg = Testutil.high_pressure () in
        with_fault Remat.Spill_code.fault_reload_skew 1 (fun () ->
            match
              Remat.Allocator.allocate ~verify:true ~machine:tiny cfg
            with
            | _ -> Alcotest.fail "allocate ~verify did not raise"
            | exception Remat.Allocator.Verification_error (msg :: _) ->
                check Alcotest.bool "error names the routine" true
                  (String.length msg > 0
                  && String.sub msg 0 13 = "high_pressure")
            | exception Remat.Allocator.Verification_error [] ->
                Alcotest.fail "empty verification error"));
    tc "remat bias: dynamically invisible, statically rejected" (fun () ->
        let cfg = bias_victim () in
        let reference =
          match Fuzz.Oracle.reference cfg with
          | Ok r -> r
          | Error m -> Alcotest.failf "reference failed: %s" m
        in
        (* Sound allocator first: clean both ways, and the scenario
           really rematerializes. *)
        let res, static, dynamic =
          static_only reference cfg tiny Remat.Mode.Briggs_remat
        in
        check Alcotest.bool "scenario rematerializes" true
          (res.Remat.Allocator.spilled_remat > 0);
        (match static with
        | None -> ()
        | Some es ->
            Alcotest.failf "clean build rejected: %s"
              (String.concat "; " (List.map Verify.Error.to_string es)));
        check Alcotest.(option string) "clean build runs clean" None dynamic;
        (* Armed: the simulator sees nothing, the checker rejects. *)
        with_fault Remat.Spill_code.fault_remat_bias 1 (fun () ->
            let _, static, dynamic =
              static_only reference cfg tiny Remat.Mode.Briggs_remat
            in
            check
              Alcotest.(option string)
              "bias invisible to the dynamic oracle" None dynamic;
            match static with
            | None -> Alcotest.fail "verifier accepted the biased remat"
            | Some es ->
                let e = List.hd es in
                check Alcotest.string "kind" "wrong-value"
                  (Verify.Error.kind_to_string e.Verify.Error.kind);
                check Alcotest.bool "fault is located" true
                  (e.Verify.Error.block <> None
                  && e.Verify.Error.index <> None)));
    tc "fuzz oracle reports the static class for the remat bias" (fun () ->
        let cfg = bias_victim () in
        with_fault Remat.Spill_code.fault_remat_bias 1 (fun () ->
            let config =
              {
                Fuzz.Oracle.optimize = false;
                mode = Remat.Mode.Briggs_remat;
                machine = tiny;
              }
            in
            match Fuzz.Oracle.reference cfg with
            | Error m -> Alcotest.failf "reference failed: %s" m
            | Ok reference -> (
                match Fuzz.Oracle.check_config ~reference cfg config with
                | Some d ->
                    check Alcotest.string "class" "static"
                      (Fuzz.Oracle.class_of d)
                | None -> Alcotest.fail "oracle missed the biased remat")));
  ]

(* --- domain gate: precise unsupported errors --- *)

let first_phi_label cfg =
  let found = ref None in
  Cfg.iter_blocks
    (fun b ->
      if !found = None && b.Block.phis <> [] then
        found := Some b.Block.label)
    cfg;
  Option.get !found

let gate_tests =
  [
    tc "SSA source is rejected naming the first φ block" (fun () ->
        let plain = Testutil.diamond () in
        let ssa = Ssa.Construct.run (Cfg.split_critical_edges plain) in
        match verify ssa plain with
        | Ok _ -> Alcotest.fail "accepted an SSA source"
        | Error es ->
            let e = List.hd es in
            check Alcotest.bool "unsupported" true
              (Verify.Error.is_unsupported e);
            check
              Alcotest.(option string)
              "φ block named"
              (Some (first_phi_label ssa))
              e.Verify.Error.block);
    tc "SSA allocated routine is rejected naming the first φ block"
      (fun () ->
        let plain = Testutil.diamond () in
        let ssa = Ssa.Construct.run (Cfg.split_critical_edges plain) in
        match verify plain ssa with
        | Ok _ -> Alcotest.fail "accepted an SSA output"
        | Error es ->
            let e = List.hd es in
            check Alcotest.bool "unsupported" true
              (Verify.Error.is_unsupported e);
            check
              Alcotest.(option string)
              "φ block named"
              (Some (first_phi_label ssa))
              e.Verify.Error.block);
    tc "pre-spilled source is rejected naming block and instruction"
      (fun () ->
        let pre =
          Cfg.make ~name:"pre"
            [
              Block.make ~id:0 ~label:"entry"
                ~body:
                  [
                    Instr.ldi r0 1;
                    Instr.spill r0 0;
                    Instr.reload r1 0;
                    Instr.print_ r1;
                  ]
                ~term:(Instr.ret (Some r1)) ();
            ]
        in
        match verify pre pre with
        | Ok _ -> Alcotest.fail "accepted a pre-spilled source"
        | Error es ->
            let e = List.hd es in
            check Alcotest.bool "unsupported" true
              (Verify.Error.is_unsupported e);
            check
              Alcotest.(option string)
              "block named" (Some "entry") e.Verify.Error.block;
            check
              Alcotest.(option int)
              "spill's index named" (Some 1) e.Verify.Error.index);
    tc "allocator's verify tolerates the gate (nothing proved, nothing \
        rejected)" (fun () ->
        (* SSA-mode allocation of a routine the gate cannot validate —
           input containing spill code — must not raise. *)
        let pre =
          Iloc.Parser.routine
            (Iloc.Printer.routine_to_string
               (let res = Remat.Allocator.allocate (Testutil.counted_loop ()) in
                res.Remat.Allocator.cfg))
        in
        if
          Cfg.fold_blocks
            (fun acc b ->
              acc
              || List.exists
                   (fun (i : Instr.t) ->
                     match i.Instr.op with
                     | Instr.Spill _ | Instr.Reload _ -> true
                     | _ -> false)
                   b.Block.body)
            false pre
        then
          ignore
            (Remat.Allocator.allocate ~verify:true ~mode:Remat.Mode.Ssa_remat
               pre));
  ]

(* --- fixpoint cost --- *)

(* Sweeping in reverse postorder walks each block about twice however
   the loops nest; a FIFO worklist re-converges every inner loop on each
   outer trip and walks these routines 4.6-11 times per block.  An exact
   count, so no timing noise. *)
let schedule_tests =
  [
    tc "fixpoint walks each block at most three times" (fun () ->
        let machine = Remat.Machine.make ~name:"8+8" ~k_int:8 ~k_float:8 in
        let config =
          {
            Fuzz.Gen.high_pressure with
            Fuzz.Gen.max_depth = 2;
            min_stmts = 64;
            max_stmts = 64;
          }
        in
        for seed = 1 to 40 do
          let cfg = Fuzz.Gen.generate ~config seed in
          let out =
            (Remat.Allocator.allocate ~mode:Remat.Mode.Briggs_remat ~machine
               cfg)
              .Remat.Allocator.cfg
          in
          match verify ~machine cfg out with
          | Error _ -> Alcotest.failf "seed %d: allocation rejected" seed
          | Ok r ->
              let visits = r.Verify.Check.fixpoint_visits
              and blocks = Cfg.n_blocks out in
              if visits > 3 * blocks then
                Alcotest.failf "seed %d: %d block walks for %d blocks" seed
                  visits blocks
        done);
  ]

(* --- every verdict pinned --- *)

(* The checker's fixpoint schedule must never decide a verdict: the
   maximal fixpoint is unique, so the full outcome text (report counts,
   or every error in order) over a fixed corpus is pinned by one digest.
   The expected digest was recorded before the FIFO worklist gave way to
   reverse-postorder sweeps; a change to it means a verdict, an error
   message or a report count moved. *)
let verdict_digest = "0d0fe30190126be692c58a5eb1b0c647"

let outcome_text input (alloc : unit -> Remat.Allocator.result) ~machine =
  match alloc () with
  | exception e -> "raise " ^ Printexc.to_string e
  | res -> (
      match verify ~machine input res.Remat.Allocator.cfg with
      | Ok r -> "ok " ^ Verify.Check.report_to_string r
      | Error es ->
          String.concat "\n"
            ("error" :: List.map Verify.Error.to_string es))

let verdict_corpus () =
  let b = Buffer.create (1 lsl 16) in
  let add key text =
    Buffer.add_string b key;
    Buffer.add_char b '\n';
    Buffer.add_string b text;
    Buffer.add_char b '\n'
  in
  let standard = Remat.Machine.standard in
  List.iter
    (fun (k : Suite.Kernels.kernel) ->
      let cfg = Suite.Kernels.cfg_of k in
      List.iter
        (fun mode ->
          add
            (Printf.sprintf "kernel %s %s" k.Suite.Kernels.name
               (Remat.Mode.to_string mode))
            (outcome_text cfg ~machine:standard (fun () ->
                 Remat.Allocator.allocate ~mode ~machine:standard cfg)))
        Remat.Mode.[ Briggs_remat; Chaitin_remat; Ssa_remat ])
    Suite.Kernels.all;
  let bias = bias_victim () in
  with_fault Remat.Spill_code.fault_remat_bias 1 (fun () ->
      add "fault remat_bias"
        (outcome_text bias ~machine:tiny (fun () ->
             Remat.Allocator.allocate ~mode:Remat.Mode.Briggs_remat
               ~machine:tiny bias)));
  let hp = Testutil.high_pressure () in
  with_fault Remat.Spill_code.fault_reload_skew 1 (fun () ->
      add "fault reload_skew"
        (outcome_text hp ~machine:tiny (fun () ->
             Remat.Allocator.allocate ~machine:tiny hp)));
  for seed = 1 to 100 do
    let cfg = Fuzz.Gen.generate seed in
    List.iter
      (fun (c : Fuzz.Oracle.config) ->
        let prepared = if c.optimize then Opt.Pipeline.run cfg else cfg in
        add
          (Printf.sprintf "fuzz %d %s" seed (Fuzz.Oracle.config_name c))
          (outcome_text prepared ~machine:c.machine (fun () ->
               Remat.Allocator.allocate ~mode:c.mode ~machine:c.machine
                 prepared)))
      Fuzz.Oracle.default_matrix
  done;
  Buffer.contents b

let digest_tests =
  [
    tc "verdict digest over kernels, planted faults and fuzz seeds"
      (fun () ->
        let text = verdict_corpus () in
        let count prefix =
          List.length
            (List.filter
               (fun l -> String.starts_with ~prefix l)
               (String.split_on_char '\n' text))
        in
        (* Both verdicts must be in the corpus, or the digest pins
           nothing about one of them. *)
        check Alcotest.bool "some allocations verify" true (count "ok " > 0);
        check Alcotest.bool "some allocations are rejected" true
          (count "error" > 0);
        check Alcotest.string "digest" verdict_digest
          (Digest.to_hex (Digest.string text)));
  ]

let () =
  Alcotest.run "verify"
    [
      ("fixtures", fixture_tests);
      ("hand", hand_tests);
      ("planted", planted_tests);
      ("gate", gate_tests);
      ("schedule", schedule_tests);
      ("digest", digest_tests);
    ]
