(* Tests for the simulator: dynamic counts and the strict interpreter. *)

module Instr = Iloc.Instr
module Counts = Sim.Counts
module Interp = Sim.Interp

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let run src = Interp.run (Iloc.Parser.routine src)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_error src frag =
  match run src with
  | _ -> Alcotest.failf "expected runtime error mentioning %S" frag
  | exception Interp.Runtime_error msg ->
      if not (contains msg frag) then
        Alcotest.failf "error %S does not mention %S" msg frag

let counts_tests =
  [
    tc "record and cycles" (fun () ->
        let c = Counts.create () in
        Counts.record c Instr.Load;
        Counts.record c (Instr.Spill 0);
        Counts.record c Instr.Copy;
        Counts.record c (Instr.Ldi 3);
        Counts.record c (Instr.Addi 1);
        Counts.record c Instr.Add;
        check Alcotest.int "total" 6 (Counts.total_instrs c);
        (* 2 + 2 + 1 + 1 + 1 + 1 *)
        check Alcotest.int "cycles" 8 (Counts.cycles c));
    tc "sub can go negative" (fun () ->
        let a = Counts.create () and b = Counts.create () in
        Counts.record a Instr.Load;
        Counts.record b Instr.Load;
        Counts.record b Instr.Load;
        let d = Counts.sub a b in
        check Alcotest.int "load diff" (-1) (Counts.get d Instr.Cat_load);
        check Alcotest.int "cycles diff" (-2) (Counts.cycles_signed d));
    tc "categories counted separately" (fun () ->
        let c = Counts.create () in
        Counts.record c (Instr.Laddr ("x", 0));
        Counts.record c (Instr.Lfp 4);
        check Alcotest.int "ldi" 1 (Counts.get c Instr.Cat_ldi);
        check Alcotest.int "addi" 1 (Counts.get c Instr.Cat_addi));
  ]

let semantics_tests =
  [
    tc "arithmetic" (fun () ->
        let o =
          run
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 17\n\
            \  r2 <- ldi 5\n\
            \  r3 <- div r1 r2\n\
            \  r4 <- rem r1 r2\n\
            \  r5 <- mul r3 r4\n\
            \  r6 <- sub r5 r2\n\
            \  print r6\n\
            \  ret\n"
        in
        (* 17/5=3, 17%5=2, 3*2=6, 6-5=1 *)
        check Alcotest.bool "prints 1" true
          (o.Interp.prints = [ Interp.I 1 ]));
    tc "float ops and conversions" (fun () ->
        let o =
          run
            "routine x\n\
             entry:\n\
            \  f1 <- lfi 2.5\n\
            \  f2 <- lfi -1.0\n\
            \  f3 <- fmul f1 f2\n\
            \  f4 <- fabs f3\n\
            \  f5 <- fneg f4\n\
            \  r1 <- ftoi f4\n\
            \  f6 <- itof r1\n\
            \  print f5\n\
            \  print f6\n\
            \  ret\n"
        in
        match o.Interp.prints with
        | [ Interp.F a; Interp.F b ] ->
            check (Alcotest.float 1e-9) "fneg(fabs)" (-2.5) a;
            check (Alcotest.float 1e-9) "itof(ftoi)" 2.0 b
        | _ -> Alcotest.fail "bad prints");
    tc "comparisons" (fun () ->
        let o =
          run
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 3\n\
            \  r2 <- ldi 4\n\
            \  r3 <- cmp_lt r1 r2\n\
            \  r4 <- cmp_ge r1 r2\n\
            \  f1 <- lfi 1.5\n\
            \  f2 <- lfi 1.5\n\
            \  r5 <- fcmp_eq f1 f2\n\
            \  print r3\n\
            \  print r4\n\
            \  print r5\n\
            \  ret\n"
        in
        check Alcotest.bool "1 0 1" true
          (o.Interp.prints = [ Interp.I 1; Interp.I 0; Interp.I 1 ]));
    tc "memory addressing modes" (fun () ->
        let o =
          run
            "routine x\n\
             data a[4] = { 10 20 30 40 }\n\
             entry:\n\
            \  r1 <- laddr @a\n\
            \  r2 <- load r1\n\
            \  r3 <- loadi r1 3\n\
            \  r4 <- ldi 2\n\
            \  r5 <- loadx r1 r4\n\
            \  r6 <- laddr @a 1\n\
            \  r7 <- load r6\n\
            \  print r2\n\
            \  print r3\n\
            \  print r5\n\
            \  print r7\n\
            \  ret\n"
        in
        check Alcotest.bool "10 40 30 20" true
          (o.Interp.prints
          = [ Interp.I 10; Interp.I 40; Interp.I 30; Interp.I 20 ]));
    tc "stores visible in final memory" (fun () ->
        let o =
          run
            "routine x\n\
             data a[2]\n\
             entry:\n\
            \  r1 <- laddr @a\n\
            \  r2 <- ldi 7\n\
            \  storei r2 -> r1 1\n\
            \  ret\n"
        in
        match List.assoc "a" o.Interp.memory with
        | [| None; Some (Interp.I 7) |] -> ()
        | _ -> Alcotest.fail "memory mismatch");
    tc "spill slots are typed storage" (fun () ->
        let o =
          run
            "routine x\n\
             entry:\n\
            \  f1 <- lfi 3.25\n\
            \  spill f1 -> [0]\n\
            \  f2 <- reload [0]\n\
            \  print f2\n\
            \  ret\n"
        in
        check Alcotest.bool "3.25" true (o.Interp.prints = [ Interp.F 3.25 ]));
    tc "branches and fuel accounting" (fun () ->
        let o =
          run
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 3\n\
            \  jmp head\n\
             head:\n\
            \  r3 <- ldi 0\n\
            \  r2 <- cmp_gt r1 r3\n\
            \  cbr r2 body done\n\
             body:\n\
            \  r1 <- subi r1 1\n\
            \  jmp head\n\
             done:\n\
            \  ret r1\n"
        in
        check Alcotest.bool "returns 0" true
          (o.Interp.return = Some (Interp.I 0));
        (* entry 2 + 4 heads * 3 + hmm; just check counts are plausible *)
        check Alcotest.bool "executed > 10" true
          (Counts.total_instrs o.Interp.counts > 10));
    tc "frame and static pointers are distinct" (fun () ->
        (* storing through an lfp address must not hit static data *)
        expect_error
          "routine x\n\
           data a[2] = { 1 2 }\n\
           entry:\n\
          \  r1 <- lfp 0\n\
          \  r2 <- ldi 5\n\
          \  storei r2 -> r1 0\n\
          \  ret\n"
          "invalid address");
  ]

let strictness_tests =
  [
    tc "uninitialized register" (fun () ->
        expect_error "routine x\nentry:\n  print r1\n  ret\n" "uninitialized");
    tc "division by zero" (fun () ->
        expect_error
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  r2 <- ldi 0\n\
          \  r3 <- div r1 r2\n\
          \  ret\n"
          "division by zero");
    tc "remainder by zero" (fun () ->
        expect_error
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  r2 <- ldi 0\n\
          \  r3 <- rem r1 r2\n\
          \  ret\n"
          "remainder");
    tc "out-of-bounds load" (fun () ->
        expect_error
          "routine x\n\
           data a[2] = { 1 2 }\n\
           entry:\n\
          \  r1 <- laddr @a\n\
          \  r2 <- loadi r1 500\n\
          \  ret\n"
          "invalid address");
    tc "uninitialized memory" (fun () ->
        expect_error
          "routine x\n\
           data a[2]\n\
           entry:\n\
          \  r1 <- laddr @a\n\
          \  r2 <- load r1\n\
          \  ret\n"
          "uninitialized address");
    tc "class-mismatched load" (fun () ->
        expect_error
          "routine x\n\
           data a[1] = { 5 }\n\
           entry:\n\
          \  r1 <- laddr @a\n\
          \  f1 <- load r1\n\
          \  ret\n"
          "float load of integer cell");
    tc "unset spill slot" (fun () ->
        expect_error "routine x\nentry:\n  r1 <- reload [4]\n  ret\n"
          "spill slot");
    tc "fuel exhaustion" (fun () ->
        let src = "routine x\nentry:\n  jmp entry\n" in
        match Interp.run ~fuel:100 (Iloc.Parser.routine src) with
        | _ -> Alcotest.fail "expected fuel exhaustion"
        | exception Interp.Runtime_error msg ->
            check Alcotest.bool "mentions fuel" true (contains msg "fuel"));
    tc "ssa form rejected" (fun () ->
        let ssa = Ssa.Construct.run (Testutil.diamond ()) in
        try
          ignore (Interp.run ssa);
          Alcotest.fail "accepted SSA"
        with Invalid_argument _ -> ());
  ]

let outcome_tests =
  [
    tc "outcome equality ignores counts" (fun () ->
        let a =
          run "routine x\nentry:\n  r1 <- ldi 4\n  print r1\n  ret r1\n"
        in
        let b =
          run
            "routine x\n\
             entry:\n\
            \  r1 <- ldi 2\n\
            \  r2 <- ldi 2\n\
            \  r3 <- add r1 r2\n\
            \  print r3\n\
            \  ret r3\n"
        in
        check Alcotest.bool "equal" true (Interp.outcome_equal a b));
    tc "outcome inequality on prints" (fun () ->
        let a = run "routine x\nentry:\n  r1 <- ldi 4\n  print r1\n  ret\n" in
        let b = run "routine x\nentry:\n  r1 <- ldi 5\n  print r1\n  ret\n" in
        check Alcotest.bool "differ" false (Interp.outcome_equal a b));
    tc "outcome inequality on memory" (fun () ->
        let mk v =
          run
            (Printf.sprintf
               "routine x\n\
                data a[1]\n\
                entry:\n\
               \  r1 <- laddr @a\n\
               \  r2 <- ldi %d\n\
               \  storei r2 -> r1 0\n\
               \  ret\n"
               v)
        in
        check Alcotest.bool "differ" false
          (Interp.outcome_equal (mk 1) (mk 2)));
    tc "nan values compare equal to themselves" (fun () ->
        let o =
          run
            "routine x\n\
             entry:\n\
            \  f1 <- lfi 0.0\n\
            \  f2 <- fdiv f1 f1\n\
            \  print f2\n\
            \  ret\n"
        in
        check Alcotest.bool "reflexive" true (Interp.outcome_equal o o));
  ]

let () =
  Alcotest.run "sim"
    [
      ("counts", counts_tests);
      ("semantics", semantics_tests);
      ("strictness", strictness_tests);
      ("outcome", outcome_tests);
    ]
