(* Unit tests for the ILOC IR: registers, instructions, parsing/printing,
   CFG construction, critical edges, and validation. *)

module Reg = Iloc.Reg
module Instr = Iloc.Instr
module Cfg = Iloc.Cfg
module Builder = Iloc.Builder

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* --- registers --- *)

let reg_tests =
  [
    tc "make/id/cls" (fun () ->
        let r = Reg.make 5 Reg.Int in
        check Alcotest.int "id" 5 (Reg.id r);
        check Alcotest.bool "int" true (Reg.is_int r);
        check Alcotest.string "print" "r5" (Reg.to_string r));
    tc "classes distinguish equal ids" (fun () ->
        let r = Reg.make 3 Reg.Int and f = Reg.make 3 Reg.Float in
        check Alcotest.bool "equal" false (Reg.equal r f);
        check Alcotest.bool "compare" true (Reg.compare r f <> 0);
        check Alcotest.string "float print" "f3" (Reg.to_string f));
    tc "negative id rejected" (fun () ->
        Alcotest.check_raises "neg"
          (Invalid_argument "Reg.make: negative id") (fun () ->
            ignore (Reg.make (-1) Reg.Int)));
    tc "supply is fresh" (fun () ->
        let s = Reg.Supply.create ~start:10 () in
        let a = Reg.Supply.fresh s Reg.Int in
        let b = Reg.Supply.fresh s Reg.Float in
        check Alcotest.int "a" 11 (Reg.id a);
        check Alcotest.int "b" 12 (Reg.id b);
        check Alcotest.int "last" 12 (Reg.Supply.last s));
  ]

(* --- instructions --- *)

let r0 = Reg.make 0 Reg.Int
let r1 = Reg.make 1 Reg.Int
let r2 = Reg.make 2 Reg.Int
let f0 = Reg.make 10 Reg.Float
let f1 = Reg.make 11 Reg.Float

let instr_tests =
  [
    tc "defs and uses" (fun () ->
        let i = Instr.add r2 r0 r1 in
        check (Alcotest.list Alcotest.string) "defs" [ "r2" ]
          (List.map Reg.to_string (Instr.defs i));
        check (Alcotest.list Alcotest.string) "uses" [ "r0"; "r1" ]
          (List.map Reg.to_string (Instr.uses i)));
    tc "class discipline enforced" (fun () ->
        (try
           ignore (Instr.add f0 r0 r1);
           Alcotest.fail "float dst accepted for add"
         with Invalid_argument _ -> ());
        (try
           ignore (Instr.fadd f0 f1 r0);
           Alcotest.fail "int src accepted for fadd"
         with Invalid_argument _ -> ());
        try
          ignore (Instr.copy r0 f0);
          Alcotest.fail "cross-class copy accepted"
        with Invalid_argument _ -> ());
    tc "fcmp produces an integer" (fun () ->
        let i = Instr.fcmp Instr.Lt r0 f0 f1 in
        check Alcotest.bool "dst int" true (Reg.is_int (Option.get i.Instr.dst)));
    tc "never-killed classification" (fun () ->
        check Alcotest.bool "ldi" true (Instr.never_killed (Instr.Ldi 4));
        check Alcotest.bool "lfi" true (Instr.never_killed (Instr.Lfi 1.0));
        check Alcotest.bool "laddr" true (Instr.never_killed (Instr.Laddr ("x", 0)));
        check Alcotest.bool "lfp" true (Instr.never_killed (Instr.Lfp 8));
        check Alcotest.bool "ldro" true (Instr.never_killed (Instr.Ldro ("x", 0)));
        check Alcotest.bool "add" false (Instr.never_killed Instr.Add);
        check Alcotest.bool "copy" false (Instr.never_killed Instr.Copy);
        check Alcotest.bool "load" false (Instr.never_killed Instr.Load));
    tc "remat equality is operand-by-operand" (fun () ->
        check Alcotest.bool "same ldi" true
          (Instr.remat_equal (Instr.Ldi 5) (Instr.Ldi 5));
        check Alcotest.bool "diff ldi" false
          (Instr.remat_equal (Instr.Ldi 5) (Instr.Ldi 6));
        check Alcotest.bool "ldi vs laddr" false
          (Instr.remat_equal (Instr.Ldi 5) (Instr.Laddr ("a", 0)));
        check Alcotest.bool "ldro offsets" false
          (Instr.remat_equal (Instr.Ldro ("a", 0)) (Instr.Ldro ("a", 1))));
    tc "categories" (fun () ->
        let cat op = Instr.category_to_string (Instr.category op) in
        check Alcotest.string "load" "load" (cat Instr.Load);
        check Alcotest.string "reload" "load" (cat (Instr.Reload 0));
        check Alcotest.string "ldro" "load" (cat (Instr.Ldro ("a", 0)));
        check Alcotest.string "spill" "store" (cat (Instr.Spill 0));
        check Alcotest.string "copy" "copy" (cat Instr.Copy);
        check Alcotest.string "ldi" "ldi" (cat (Instr.Ldi 1));
        check Alcotest.string "laddr" "ldi" (cat (Instr.Laddr ("a", 0)));
        check Alcotest.string "lfp" "addi" (cat (Instr.Lfp 0));
        check Alcotest.string "addi" "addi" (cat (Instr.Addi 1));
        check Alcotest.string "mul" "other" (cat Instr.Mul));
    tc "terminators" (fun () ->
        check Alcotest.bool "jmp" true (Instr.is_terminator (Instr.jmp "l"));
        check Alcotest.bool "cbr" true
          (Instr.is_terminator (Instr.cbr r0 "a" "b"));
        check Alcotest.bool "ret" true (Instr.is_terminator (Instr.ret None));
        check Alcotest.bool "add" false (Instr.is_terminator (Instr.add r2 r0 r1)));
    tc "map_regs hits every operand" (fun () ->
        let subst r = if Reg.equal r r0 then r2 else r in
        let i = Instr.map_regs subst (Instr.add r1 r0 r0) in
        check (Alcotest.list Alcotest.string) "uses" [ "r2"; "r2" ]
          (List.map Reg.to_string (Instr.uses i)));
    tc "ret arity" (fun () ->
        try
          ignore (Instr.make Instr.Ret [ r0; r1 ]);
          Alcotest.fail "two-operand ret accepted"
        with Invalid_argument _ -> ());
  ]

(* --- parser / printer --- *)

let parse_instr_tests =
  let roundtrip s =
    let i = Iloc.Parser.instr s in
    check Alcotest.string "roundtrip" s (Instr.to_string i)
  in
  [
    tc "instruction roundtrips" (fun () ->
        List.iter roundtrip
          [
            "r1 <- ldi 42";
            "r1 <- ldi -7";
            "f2 <- lfi 0x1.4p+1";
            "r3 <- laddr @table";
            "r3 <- lfp 16";
            "r4 <- ldro @k 3";
            "r5 <- add r1 r2";
            "r5 <- cmp_le r1 r2";
            "r5 <- addi r1 -3";
            "f5 <- fadd f1 f2";
            "r9 <- fcmp_ge f1 f2";
            "f5 <- itof r1";
            "r5 <- ftoi f1";
            "r5 <- copy r1";
            "f5 <- copy f1";
            "f6 <- load r1";
            "r6 <- loadx r1 r2";
            "r6 <- loadi r1 4";
            "store r1 -> r2";
            "storex f1 -> r2 r3";
            "storei r1 -> r2 8";
            "spill r1 -> [3]";
            "r1 <- reload [3]";
            "jmp exit";
            "cbr r1 a b";
            "ret";
            "ret r1";
            "print f1";
            "nop";
          ]);
    tc "comments and whitespace" (fun () ->
        let i = Iloc.Parser.instr "  r1   <- ldi 5 ; trailing comment" in
        check Alcotest.string "parsed" "r1 <- ldi 5" (Instr.to_string i));
    tc "bad instruction rejected" (fun () ->
        List.iter
          (fun s ->
            try
              ignore (Iloc.Parser.instr s);
              Alcotest.failf "accepted %S" s
            with Iloc.Parser.Error _ -> ())
          [
            "r1 <- frob r2";
            "r1 <- add r2";
            "f1 <- add r1 r2";
            "r1 <- copy f2";
            "store r1 r2";
            "r1 <-";
            "cbr r1 onlyone";
          ]);
  ]

let sample_routine =
  {|
routine sample
data const k[4] = { 3 1 4 1 }
data buf[2]
entry:
  r1 <- ldro @k 0
  r2 <- ldi 10
  r3 <- cmp_lt r1 r2
  cbr r3 yes no
yes:
  r4 <- laddr @buf
  storei r1 -> r4 0
  jmp done
no:
  r4 <- laddr @buf
  storei r2 -> r4 0
  jmp done
done:
  ret
|}

let routine_tests =
  [
    tc "routine parses" (fun () ->
        let cfg = Iloc.Parser.routine sample_routine in
        check Alcotest.string "name" "sample" cfg.Cfg.name;
        check Alcotest.int "blocks" 4 (Cfg.n_blocks cfg);
        check Alcotest.int "symbols" 2 (List.length cfg.Cfg.symbols));
    tc "routine roundtrips through printer" (fun () ->
        let cfg = Iloc.Parser.routine sample_routine in
        let text = Iloc.Printer.routine_to_string cfg in
        let cfg2 = Iloc.Parser.routine text in
        check Alcotest.string "same text" text
          (Iloc.Printer.routine_to_string cfg2));
    tc "edges" (fun () ->
        let cfg = Iloc.Parser.routine sample_routine in
        check (Alcotest.list Alcotest.int) "entry succs" [ 1; 2 ]
          (List.sort Int.compare (Cfg.succs cfg 0));
        check (Alcotest.list Alcotest.int) "done preds" [ 1; 2 ]
          (List.sort Int.compare (Cfg.preds cfg 3)));
    tc "dangling label rejected" (fun () ->
        try
          ignore (Iloc.Parser.routine "routine x\nentry:\n  jmp nowhere\n");
          Alcotest.fail "dangling label accepted"
        with Iloc.Parser.Error _ -> ());
    tc "duplicate label rejected" (fun () ->
        try
          ignore
            (Iloc.Parser.routine "routine x\na:\n  jmp a\na:\n  ret\n");
          Alcotest.fail "duplicate label accepted"
        with Iloc.Parser.Error _ -> ());
    tc "missing terminator rejected" (fun () ->
        try
          ignore (Iloc.Parser.routine "routine x\nentry:\n  r1 <- ldi 1\n");
          Alcotest.fail "missing terminator accepted"
        with Iloc.Parser.Error _ -> ());
    tc "program parses several routines" (fun () ->
        let src = "routine a\nentry:\n  ret\nroutine b\nentry:\n  ret\n" in
        check Alcotest.int "two" 2 (List.length (Iloc.Parser.program src)));
  ]

(* --- critical edges --- *)

let critical_edge_tests =
  [
    tc "critical edge split" (fun () ->
        (* entry -cbr-> (a, join); a -> join: the entry->join edge is
           critical (entry has 2 succs, join has 2 preds). *)
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  cbr r1 a join\n\
           a:\n\
          \  jmp join\n\
           join:\n\
          \  ret\n"
        in
        let cfg = Iloc.Parser.routine src in
        let cfg' = Cfg.split_critical_edges cfg in
        check Alcotest.int "one block added" 4 (Cfg.n_blocks cfg');
        (* After splitting, no edge is critical. *)
        Cfg.iter_blocks
          (fun b ->
            let ns = Cfg.succs cfg' b.Iloc.Block.id in
            if List.length ns > 1 then
              List.iter
                (fun s ->
                  check Alcotest.int
                    (Printf.sprintf "B%d multi-pred" s)
                    1
                    (List.length (Cfg.preds cfg' s)))
                ns)
          cfg');
    tc "degenerate cbr normalized" (fun () ->
        let src =
          "routine x\nentry:\n  r1 <- ldi 1\n  cbr r1 out out\nout:\n  ret\n"
        in
        let cfg = Cfg.split_critical_edges (Iloc.Parser.routine src) in
        match (Cfg.block cfg 0).Iloc.Block.term.Instr.op with
        | Instr.Jmp "out" -> ()
        | _ -> Alcotest.fail "cbr not normalized to jmp");
    tc "split preserves behaviour" (fun () ->
        let cfg = Testutil.diamond () in
        let cfg' = Cfg.split_critical_edges cfg in
        Testutil.assert_equiv ~what:"critical-edge split" cfg cfg');
  ]

(* --- validation --- *)

let validate_tests =
  [
    tc "valid routine passes" (fun () ->
        List.iter
          (fun (name, cfg) ->
            match Iloc.Validate.routine cfg with
            | Ok () -> ()
            | Error es ->
                Alcotest.failf "%s: %s" name
                  (String.concat "; "
                     (List.map Iloc.Validate.error_to_string es)))
          (Testutil.all_fixed ()));
    tc "use before def detected" (fun () ->
        let src = "routine x\nentry:\n  r2 <- addi r1 1\n  ret\n" in
        match Iloc.Validate.routine (Iloc.Parser.routine src) with
        | Ok () -> Alcotest.fail "undefined use accepted"
        | Error _ -> ());
    tc "errors carry block label and instruction index" (fun () ->
        let src =
          "routine x\n\
           entry:\n\
          \  jmp more\n\
           more:\n\
          \  r1 <- ldi 1\n\
          \  r2 <- addi r9 1\n\
          \  ret\n"
        in
        match Iloc.Validate.routine (Iloc.Parser.routine src) with
        | Ok () -> Alcotest.fail "undefined use accepted"
        | Error (e :: _) ->
            check Alcotest.(option string) "block" (Some "more")
              e.Iloc.Validate.block;
            check Alcotest.(option int) "index" (Some 1)
              e.Iloc.Validate.index;
            check Alcotest.bool "message locates the instruction" true
              (String.starts_with ~prefix:"x/more#1:"
                 (Iloc.Validate.error_to_string e))
        | Error [] -> Alcotest.fail "empty error list");
    tc "branch-dependent def detected" (fun () ->
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  cbr r1 a b\n\
           a:\n\
          \  r2 <- ldi 2\n\
          \  jmp join\n\
           b:\n\
          \  jmp join\n\
           join:\n\
          \  print r2\n\
          \  ret\n"
        in
        match Iloc.Validate.routine (Iloc.Parser.routine src) with
        | Ok () -> Alcotest.fail "partially-defined use accepted"
        | Error _ -> ());
    tc "ldro from writable data detected" (fun () ->
        let src =
          "routine x\ndata w[2]\nentry:\n  r1 <- ldro @w 0\n  ret\n"
        in
        match Iloc.Validate.routine (Iloc.Parser.routine src) with
        | Ok () -> Alcotest.fail "ldro from writable symbol accepted"
        | Error _ -> ());
    tc "unknown symbol detected" (fun () ->
        let src = "routine x\nentry:\n  r1 <- laddr @ghost\n  ret\n" in
        match Iloc.Validate.routine (Iloc.Parser.routine src) with
        | Ok () -> Alcotest.fail "unknown symbol accepted"
        | Error _ -> ());
    tc "def on all paths accepted" (fun () ->
        let src =
          "routine x\n\
           entry:\n\
          \  r1 <- ldi 1\n\
          \  cbr r1 a b\n\
           a:\n\
          \  r2 <- ldi 2\n\
          \  jmp join\n\
           b:\n\
          \  r2 <- ldi 3\n\
          \  jmp join\n\
           join:\n\
          \  print r2\n\
          \  ret\n"
        in
        match Iloc.Validate.routine (Iloc.Parser.routine src) with
        | Ok () -> ()
        | Error es ->
            Alcotest.failf "rejected: %s"
              (String.concat "; " (List.map Iloc.Validate.error_to_string es)));
  ]

(* --- builder --- *)

(* --- content hash (the serving cache's memo key) --- *)

let hash_of text = Cfg.content_hash (Iloc.Parser.routine text)

let tiny_routine =
  "routine tiny\nentry:\n  r1 <- ldi 5\n  r2 <- addi r1 3\n  jmp out\nout:\n\
  \  ret\n"

let content_hash_tests =
  [
    tc "structurally equal routines hash equal" (fun () ->
        let cfg = Iloc.Parser.routine sample_routine in
        let cfg2 = Iloc.Parser.routine sample_routine in
        check Alcotest.bool "sanity" true (Cfg.structural_equal cfg cfg2);
        check Alcotest.string "hash" (Cfg.content_hash cfg)
          (Cfg.content_hash cfg2));
    tc "hash survives a print/parse round trip" (fun () ->
        List.iter
          (fun text ->
            let cfg = Iloc.Parser.routine text in
            let reparsed =
              Iloc.Parser.routine (Iloc.Printer.routine_to_string cfg)
            in
            check Alcotest.string "stable" (Cfg.content_hash cfg)
              (Cfg.content_hash reparsed))
          [ sample_routine; tiny_routine ]);
    tc "hash separates payload, register, label and name edits" (fun () ->
        (* replace every occurrence of [pat] in the tiny routine *)
        let edited pat repl =
          let buf = Buffer.create (String.length tiny_routine) in
          let plen = String.length pat in
          let n = String.length tiny_routine in
          let i = ref 0 in
          while !i < n do
            if
              !i + plen <= n
              && String.equal (String.sub tiny_routine !i plen) pat
            then begin
              Buffer.add_string buf repl;
              i := !i + plen
            end
            else begin
              Buffer.add_char buf tiny_routine.[!i];
              incr i
            end
          done;
          Buffer.contents buf
        in
        let base = hash_of tiny_routine in
        List.iter
          (fun (what, pat, repl) ->
            check Alcotest.bool what true
              (hash_of (edited pat repl) <> base))
          [
            ("payload", "ldi 5", "ldi 6");
            ("register", "r1 <- ldi 5", "r3 <- ldi 5");
            ("label", "jmp out\nout:", "jmp fin\nfin:");
            ("name", "routine tiny", "routine big");
          ]);
    tc "hash separates float payloads by bits, identifying -0. with 0."
      (fun () ->
        let f x =
          hash_of (Printf.sprintf "routine f\nentry:\n  f1 <- lfi %s\n  ret\n" x)
        in
        check Alcotest.bool "different floats differ" true (f "1.5" <> f "2.5");
        check Alcotest.string "negative zero is zero" (f "0.") (f "-0."));
  ]

let builder_tests =
  [
    tc "duplicate block label rejected" (fun () ->
        let b = Builder.create "x" in
        Builder.block b "entry" [] ~term:(Instr.ret None);
        try
          Builder.block b "entry" [] ~term:(Instr.ret None);
          Alcotest.fail "duplicate label accepted"
        with Invalid_argument _ -> ());
    tc "terminator required" (fun () ->
        try
          ignore
            (Iloc.Block.make ~id:0 ~label:"x" ~body:[]
               ~term:(Instr.ldi r0 1) ());
          Alcotest.fail "non-terminator accepted as terminator"
        with Invalid_argument _ -> ());
    tc "terminator in body rejected" (fun () ->
        try
          ignore
            (Iloc.Block.make ~id:0 ~label:"x"
               ~body:[ Instr.jmp "x" ]
               ~term:(Instr.ret None) ());
          Alcotest.fail "terminator in body accepted"
        with Invalid_argument _ -> ());
  ]

(* printer/parser round trip on random structured programs: printing,
   reparsing and reprinting is a fixpoint *)
let roundtrip_prop =
  QCheck.Test.make ~count:100 ~name:"printer/parser round trip"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let text = Iloc.Printer.routine_to_string cfg in
      let cfg2 = Iloc.Parser.routine text in
      String.equal text (Iloc.Printer.routine_to_string cfg2))

(* reparsing also reconstructs the routine structurally: same blocks,
   labels, instructions, registers and symbols — a stronger statement than
   the print fixpoint, since it cannot be fooled by the printer dropping
   the same detail twice *)
let structural_roundtrip_prop =
  QCheck.Test.make ~count:100 ~name:"reparse is structurally identical"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let cfg2 = Iloc.Parser.routine (Iloc.Printer.routine_to_string cfg) in
      Cfg.structural_equal cfg cfg2)

(* parsing a random program and re-running it gives identical outcomes *)
let reparse_semantics_prop =
  QCheck.Test.make ~count:60 ~name:"reparsed programs behave identically"
    Testutil.Gen_prog.arbitrary_cfg
    (fun cfg ->
      let cfg2 = Iloc.Parser.routine (Iloc.Printer.routine_to_string cfg) in
      Sim.Interp.outcome_equal (Sim.Interp.run cfg) (Sim.Interp.run cfg2))

let () =
  Alcotest.run "iloc"
    [
      ("reg", reg_tests);
      ("instr", instr_tests);
      ("parse-instr", parse_instr_tests);
      ("routine", routine_tests);
      ("critical-edges", critical_edge_tests);
      ("validate", validate_tests);
      ("content-hash", content_hash_tests);
      ("builder", builder_tests);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            roundtrip_prop; structural_roundtrip_prop; reparse_semantics_prop;
          ] );
    ]
