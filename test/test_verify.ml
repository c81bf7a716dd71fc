(* Tests for lib/verify, the static translation validator.

   Three layers: clean allocations across fixtures/modes/machines must
   verify; hand-built allocated routines with planted mistakes must be
   rejected with errors naming the fault; and the two spill-code fault
   injections must be rejected statically — with no simulator run — one
   of them even though the dynamic oracle's inputs cannot see it.
   Beside them: the abstract domain against a naive model of its facts,
   the checker's minor words pinned, and every verdict digested. *)

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
    tc "over-k errors: every operand, in instruction order" (fun () ->
        (* Destinations before sources, a source named twice reported
           twice, the terminator last: the order and text of the list
           the checker returns. *)
        let r8 = Reg.make 8 Reg.Int and r9 = Reg.make 9 Reg.Int in
        let output =
          hand_output
            [
              Instr.ldi r0 1; Instr.ldi r9 2; Instr.add r8 r9 r9;
              Instr.print_ r8;
            ]
            ~ret:(Some r8)
        in
        let machine = Remat.Machine.make ~name:"k4" ~k_int:4 ~k_float:4 in
        match verify ~machine (hand_input ()) output with
        | Ok _ ->
            Alcotest.fail "verifier accepted r8 and r9 on a 4-register machine"
        | Error es ->
            check
              Alcotest.(list string)
              "over-k errors"
              (List.map
                 (fun (index, instr, r) ->
                   Printf.sprintf
                     "hand/entry#%d: [over-k] `%s` mentions %s, beyond the 4 \
                      available int registers"
                     index instr r)
                 [
                   (1, "r9 <- ldi 2", "r9");
                   (2, "r8 <- add r9 r9", "r8");
                   (2, "r8 <- add r9 r9", "r9");
                   (2, "r8 <- add r9 r9", "r9");
                   (3, "print r8", "r8");
                   (4, "ret r8", "r8");
                 ])
              (List.filter_map
                 (fun (e : Verify.Error.t) ->
                   if e.Verify.Error.kind = Verify.Error.Over_k then
                     Some (Verify.Error.to_string e)
                   else None)
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

(* --- domain gate: precise errors --- *)

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
            check Alcotest.string "kind" "structure"
              (Verify.Error.kind_to_string e.Verify.Error.kind);
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

(* --- the domain against a naive model --- *)

(* DESIGN §12.1's facts written out as plain lists and filtered on every
   transfer: [eqs] as (location, register) pairs, [exprs] as (location,
   op), [consts] as (register, op).  [Verify.State]'s working state and
   snapshots must agree with it on every [holds] query and every
   [equal]. *)
module Model = struct
  type loc = Preg of Reg.t | Slot of int

  type t = {
    eqs : (loc * Reg.t) list;
    exprs : (loc * Instr.op) list;
    consts : (Reg.t * Instr.op) list;
  }

  let empty = { eqs = []; exprs = []; consts = [] }

  let holds m v l =
    (match l with
    | Preg p -> Reg.cls_equal (Reg.cls p) (Reg.cls v)
    | Slot _ -> true)
    && (List.exists (fun (l', v') -> l' = l && Reg.equal v' v) m.eqs
       || List.exists
            (fun (l', e) ->
              l' = l
              && List.exists
                   (fun (v', c) -> Reg.equal v' v && Instr.remat_equal e c)
                   m.consts)
            m.exprs)

  let kill_loc m l =
    {
      m with
      eqs = List.filter (fun (l', _) -> l' <> l) m.eqs;
      exprs = List.filter (fun (l', _) -> l' <> l) m.exprs;
    }

  let kill_vreg m v =
    {
      m with
      eqs = List.filter (fun (_, v') -> not (Reg.equal v' v)) m.eqs;
      consts = List.filter (fun (v', _) -> not (Reg.equal v' v)) m.consts;
    }

  let bind_def m v l =
    let m = kill_loc (kill_vreg m v) l in
    { m with eqs = (l, v) :: m.eqs }

  let loc_copy m ~src ~dst =
    if src = dst then m
    else
      let m' = kill_loc m dst in
      {
        m' with
        eqs =
          List.filter_map
            (fun (l, v) -> if l = src then Some (dst, v) else None)
            m.eqs
          @ m'.eqs;
        exprs =
          List.filter_map
            (fun (l, e) -> if l = src then Some (dst, e) else None)
            m.exprs
          @ m'.exprs;
      }

  let input_copy m ~dst ~src =
    if Reg.equal dst src then m
    else
      let m' = kill_vreg m dst in
      {
        m' with
        eqs =
          List.filter_map
            (fun (l, v) -> if Reg.equal v src then Some (l, dst) else None)
            m.eqs
          @ m'.eqs;
        consts =
          List.filter_map
            (fun (v, c) -> if Reg.equal v src then Some (dst, c) else None)
            m.consts
          @ m'.consts;
      }

  let input_const m v op =
    let m = kill_vreg m v in
    { m with consts = (v, op) :: m.consts }

  let remat m l op =
    let m' = kill_loc m l in
    {
      m' with
      eqs =
        List.filter_map
          (fun (v, c) -> if Instr.remat_equal c op then Some (l, v) else None)
          m.consts
        @ m'.eqs;
      exprs = (l, op) :: m'.exprs;
    }

  let mem_op same (k, op) facts =
    List.exists (fun (k', op') -> same k k' && Instr.remat_equal op op') facts

  let meet a b =
    {
      eqs =
        List.filter
          (fun (l, v) ->
            List.exists (fun (l', v') -> l = l' && Reg.equal v v') b.eqs)
          a.eqs;
      exprs = List.filter (fun f -> mem_op ( = ) f b.exprs) a.exprs;
      consts = List.filter (fun f -> mem_op Reg.equal f b.consts) a.consts;
    }

  (* No list holds a fact twice, so [a ⊆ b] when [meet a b] keeps all
     of [a]. *)
  let equal a b =
    let subset a b =
      let m = meet a b in
      List.compare_lengths m.eqs a.eqs = 0
      && List.compare_lengths m.exprs a.exprs = 0
      && List.compare_lengths m.consts a.consts = 0
    in
    subset a b && subset b a
end

(* A universe small enough that random steps collide: [r0] and [f0] are
   distinct locations, and so are [r12] and [f12]. *)
let model_vregs =
  [| Reg.make 11 Reg.Int; Reg.make 12 Reg.Int; Reg.make 12 Reg.Float |]

let model_locs =
  Model.
    [| Preg (Reg.make 0 Reg.Int); Preg (Reg.make 1 Reg.Int);
       Preg (Reg.make 0 Reg.Float); Slot 0; Slot 1 |]

(* [Lfi] 0.0 and -0.0, and two NaNs: [remat_equal] identifies each
   pair, so interning must too. *)
let model_ops =
  Instr.
    [| Ldi 0; Ldi 1; Laddr ("a", 0); Lfi 0.0; Lfi (-0.0); Lfi Float.nan;
       Lfi (-.Float.nan) |]

type step =
  | Kill_loc of int
  | Kill_vreg of int
  | Bind_def of int * int  (** register, location *)
  | Loc_copy of int * int  (** source, destination location *)
  | Input_copy of int * int  (** destination, source register *)
  | Input_const of int * int  (** register, op *)
  | Remat of int * int  (** location, op *)

let step_to_string = function
  | Kill_loc l -> Printf.sprintf "kill_loc %d" l
  | Kill_vreg v -> Printf.sprintf "kill_vreg %d" v
  | Bind_def (v, l) -> Printf.sprintf "bind_def %d %d" v l
  | Loc_copy (s, d) -> Printf.sprintf "loc_copy %d->%d" s d
  | Input_copy (d, s) -> Printf.sprintf "input_copy %d<-%d" d s
  | Input_const (v, o) -> Printf.sprintf "input_const %d %d" v o
  | Remat (l, o) -> Printf.sprintf "remat %d %d" l o

let gen_step =
  let open QCheck.Gen in
  let v = int_bound (Array.length model_vregs - 1)
  and l = int_bound (Array.length model_locs - 1)
  and o = int_bound (Array.length model_ops - 1) in
  oneof
    [
      map (fun l -> Kill_loc l) l;
      map (fun v -> Kill_vreg v) v;
      map2 (fun v l -> Bind_def (v, l)) v l;
      map2 (fun s d -> Loc_copy (s, d)) l l;
      map2 (fun d s -> Input_copy (d, s)) v v;
      map2 (fun v o -> Input_const (v, o)) v o;
      map2 (fun l o -> Remat (l, o)) l o;
    ]

(* A common prefix, two branches from its end, then a tail from their
   meet.  The right branch redoes each step of the left one or replaces
   it, so the two often agree on a fact but reach it differently. *)
let arb_branches =
  let open QCheck.Gen in
  let steps = list_size (int_bound 12) gen_step in
  let branches =
    steps >>= fun left ->
    map
      (fun right -> (left, right))
      (flatten_l
         (List.map (fun s -> frequency [ (1, return s); (1, gen_step) ]) left))
  in
  let print (pre, a, b, tl) =
    let p xs = String.concat "; " (List.map step_to_string xs) in
    Printf.sprintf "prefix [%s]\nleft [%s]\nright [%s]\ntail [%s]" (p pre)
      (p a) (p b) (p tl)
  in
  QCheck.make ~print
    (map
       (fun (pre, (left, right), tail) -> (pre, left, right, tail))
       (triple steps branches steps))

let domain_prop =
  QCheck.Test.make ~count:1000 ~name:"State agrees with the fact-list model"
    arb_branches (fun (pre, left, right, tail) ->
      let module S = Verify.State in
      let w = S.create () in
      let vreg i = S.vreg w model_vregs.(i) in
      let loc i =
        match model_locs.(i) with
        | Model.Preg p -> S.reg_loc w p
        | Model.Slot s -> S.slot_loc w s
      in
      let op i = S.op w model_ops.(i) in
      let apply m = function
        | Kill_loc l ->
            S.kill_loc w (loc l);
            Model.kill_loc m model_locs.(l)
        | Kill_vreg v ->
            S.kill_vreg w (vreg v);
            Model.kill_vreg m model_vregs.(v)
        | Bind_def (v, l) ->
            S.bind_def w ~vreg:(vreg v) ~loc:(loc l);
            Model.bind_def m model_vregs.(v) model_locs.(l)
        | Loc_copy (s, d) ->
            S.loc_copy w ~src:(loc s) ~dst:(loc d);
            Model.loc_copy m ~src:model_locs.(s) ~dst:model_locs.(d)
        | Input_copy (d, s) ->
            S.input_copy w ~dst:(vreg d) ~src:(vreg s);
            Model.input_copy m ~dst:model_vregs.(d) ~src:model_vregs.(s)
        | Input_const (v, o) ->
            S.input_const w ~vreg:(vreg v) ~op:(op o);
            Model.input_const m model_vregs.(v) model_ops.(o)
        | Remat (l, o) ->
            S.remat w ~loc:(loc l) ~op:(op o);
            Model.remat m model_locs.(l) model_ops.(o)
      in
      let agree what m =
        Array.iteri
          (fun vi v ->
            Array.iteri
              (fun li l ->
                let got = S.holds w (vreg vi) (loc li)
                and want = Model.holds m v l in
                if got <> want then
                  QCheck.Test.fail_reportf
                    "%s: holds %s at location %d is %b, the model says %b"
                    what (Reg.to_string v) li got want)
              model_locs)
          model_vregs
      in
      let run what m steps =
        List.fold_left
          (fun m st ->
            let m = apply m st in
            agree (what ^ " after " ^ step_to_string st) m;
            m)
          m steps
      in
      let same_equal what sa sb ma mb =
        let got = S.equal sa sb and want = Model.equal ma mb in
        if got <> want then
          QCheck.Test.fail_reportf "%s: equal is %b, the model says %b" what
            got want
      in
      let m0 = run "prefix" Model.empty pre in
      let s0 = S.freeze w in
      let ml = run "left" m0 left in
      let sl = S.freeze w in
      S.load w s0;
      agree "prefix reloaded" m0;
      let mr = run "right" m0 right in
      let sr = S.freeze w in
      let met = S.meet sl sr and mmet = Model.meet ml mr in
      S.load w met;
      agree "meet" mmet;
      same_equal "left, right" sl sr ml mr;
      same_equal "meet, left" met sl mmet ml;
      same_equal "meet, right" met sr mmet mr;
      same_equal "prefix, left" s0 sl m0 ml;
      same_equal "empty, meet" S.empty met Model.empty mmet;
      let mt = run "tail" mmet tail in
      same_equal "tail, meet" (S.freeze w) met mt mmet;
      true)

(* --- allocation pins --- *)

(* Minor words are exact and repeatable where wall-clock time is
   neither.  [Gc.minor_words] is read rather than [Gc.counters]: on
   OCaml 5.1 the latter's minor count moves only at minor collections,
   and three back-to-back readings of one verification gave 152k to
   496k words. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let verified_words ~what input output =
  let r, words = minor_words (fun () -> verify input output) in
  (match r with
  | Ok _ -> ()
  | Error es ->
      Alcotest.failf "%s: rejected:\n%s" what
        (String.concat "\n" (List.map Verify.Error.to_string es)));
  words

(* The checker with the map-based domain read 299,796 minor words for
   this verification. *)
let tomcatv_words_before = 299_796.

let word_tests =
  [
    tc "tomcatv's briggs allocation verifies in half the words" (fun () ->
        let cfg = Suite.Kernels.cfg_of (Suite.Kernels.find "tomcatv") in
        let out =
          (Remat.Allocator.allocate ~mode:Remat.Mode.Briggs_remat cfg)
            .Remat.Allocator.cfg
        in
        let words = verified_words ~what:"tomcatv" cfg out in
        if words > tomcatv_words_before /. 2. then
          Alcotest.failf "%.0f minor words, more than half of %.0f" words
            tomcatv_words_before);
    tc "a huge register id costs no more words than a small one" (fun () ->
        let routine id =
          let v = Reg.make id Reg.Int in
          Cfg.make ~name:"one"
            [
              Block.make ~id:0 ~label:"entry"
                ~body:[ Instr.ldi v 7; Instr.addi v v 1; Instr.print_ v ]
                ~term:(Instr.ret (Some v)) ();
            ]
        in
        let small = routine 5 and huge = routine 5_000_000 in
        (* The allocator still sizes arrays by register id, so both
           inputs are checked against the small one's allocation. *)
        let out = (Remat.Allocator.allocate small).Remat.Allocator.cfg in
        let w_small = verified_words ~what:"r5" small out
        and w_huge = verified_words ~what:"r5000000" huge out in
        if w_huge > 2. *. w_small then
          Alcotest.failf "r5000000: %.0f minor words, r5: %.0f" w_huge w_small);
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
      ("domain", [ QCheck_alcotest.to_alcotest domain_prop ]);
      ("words", word_tests);
      ("digest", digest_tests);
    ]
