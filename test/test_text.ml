(* The ILOC text layer: what the printer writes for allocated code, and
   the lexer, printer and must-defined check against the versions they
   replaced ([Reference.Lexer], [Reference.Printer],
   [Reference.Validate]). *)

module Cfg = Iloc.Cfg
module Block = Iloc.Block
module Instr = Iloc.Instr
module Reg = Iloc.Reg

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let print = Iloc.Printer.routine_to_string
let modes = Remat.Mode.[ Briggs_remat; Chaitin_remat; Ssa_remat ]

(* [Printer.routine_to_string] of every kernel, plain and optimized,
   allocated under each of the perfbench families on the standard
   machine: 49 x 2 x 3 = 294 texts. *)
let printed_corpus () =
  let b = Buffer.create (1 lsl 20) in
  let texts = ref 0 in
  List.iter
    (fun (k : Suite.Kernels.kernel) ->
      List.iter
        (fun optimize ->
          let cfg = Suite.Kernels.cfg_of ~optimize k in
          List.iter
            (fun mode ->
              Printf.bprintf b "== %s%s %s\n" k.Suite.Kernels.name
                (if optimize then " -O" else "")
                (Remat.Mode.to_string mode);
              let res =
                Remat.Allocator.allocate ~mode
                  ~machine:Remat.Machine.standard cfg
              in
              Buffer.add_string b
                (Iloc.Printer.routine_to_string res.Remat.Allocator.cfg);
              incr texts)
            modes)
        [ false; true ])
    Suite.Kernels.all;
  (!texts, Buffer.contents b)

let printed_digest = "5d431a08b29ff1585ee8f9f30ce02bad"

(* The SSA family under pressure: [ssa] and [ssa-no-remat] on 8+8 and
   6+6 — where most kernels spill, through memory φs, φ-edge reloads and
   several rounds — for every kernel, plain and optimized, and for
   seeded [Gen.default] and [Gen.high_pressure] routines.  Each entry
   records the rounds and spill counts beside the printed text, or the
   refusal. *)
let ssa_machines =
  [
    Remat.Machine.make ~name:"8+8" ~k_int:8 ~k_float:8;
    Remat.Machine.make ~name:"6+6" ~k_int:6 ~k_float:6;
  ]

let ssa_gen_seeds = List.init 12 Fun.id

let ssa_corpus () =
  let b = Buffer.create (1 lsl 20) in
  let texts = ref 0 and spilled = ref 0 in
  let entry what cfg =
    List.iter
      (fun (machine : Remat.Machine.t) ->
        List.iter
          (fun mode ->
            Printf.bprintf b "== %s %s %s\n" what (Remat.Mode.to_string mode)
              machine.Remat.Machine.name;
            match Remat.Allocator.allocate ~mode ~machine cfg with
            | res ->
                let r = res.Remat.Allocator.rounds in
                if r > 1 then incr spilled;
                Printf.bprintf b "rounds %d memory %d remat %d slots %d\n" r
                  res.Remat.Allocator.spilled_memory
                  res.Remat.Allocator.spilled_remat
                  res.Remat.Allocator.spill_slots;
                Buffer.add_string b
                  (Iloc.Printer.routine_to_string res.Remat.Allocator.cfg);
                incr texts
            | exception
                ( Remat.Allocator.Allocation_error msg
                | Remat.Spill_code.Pressure_too_high msg ) ->
                Printf.bprintf b "refused %s\n" msg)
          Remat.Mode.[ Ssa_remat; Ssa_no_remat ])
      ssa_machines
  in
  List.iter
    (fun (k : Suite.Kernels.kernel) ->
      List.iter
        (fun optimize ->
          entry
            (k.Suite.Kernels.name ^ if optimize then " -O" else "")
            (Suite.Kernels.cfg_of ~optimize k))
        [ false; true ])
    Suite.Kernels.all;
  List.iter
    (fun (gname, config) ->
      List.iter
        (fun seed ->
          entry
            (Printf.sprintf "%s %d" gname seed)
            (Fuzz.Gen.generate ~config seed))
        ssa_gen_seeds)
    [ ("default", Fuzz.Gen.default); ("high-pressure", Fuzz.Gen.high_pressure) ];
  (!texts, !spilled, Buffer.contents b)

let ssa_digest = "772c4a90e220fb891552ea854af61101"

let printed_tests =
  [
    Alcotest.test_case "allocated kernels print to pinned text" `Quick
      (fun () ->
        let texts, corpus = printed_corpus () in
        check Alcotest.int "texts" 294 texts;
        check Alcotest.string "digest" printed_digest
          (Digest.to_hex (Digest.string corpus)));
    Alcotest.test_case "SSA allocations under pressure print to pinned text"
      `Quick (fun () ->
        let texts, spilled, corpus = ssa_corpus () in
        check Alcotest.int "texts" 488 texts;
        check Alcotest.int "spilled" 376 spilled;
        check Alcotest.string "digest" ssa_digest
          (Digest.to_hex (Digest.string corpus)));
  ]

(* --- inputs --- *)

let kernels =
  lazy
    (List.concat_map
       (fun k ->
         [ Suite.Kernels.cfg_of k; Suite.Kernels.cfg_of ~optimize:true k ])
       Suite.Kernels.all)

let configs =
  [ ("default", Fuzz.Gen.default); ("high-pressure", Fuzz.Gen.high_pressure) ]

let small = Remat.Machine.make ~name:"small" ~k_int:6 ~k_float:6

(* [cfg] allocated on [machine], when the allocator manages it. *)
let allocated ~mode ~machine cfg =
  match Remat.Allocator.allocate ~mode ~machine cfg with
  | res -> Some res.Remat.Allocator.cfg
  | exception
      ( Remat.Allocator.Allocation_error _
      | Remat.Spill_code.Pressure_too_high _ ) ->
      None

let seed_arb = QCheck.(make ~print:string_of_int Gen.(int_bound 0x3FFFFFFF))

(* --- printer --- *)

let same_text what cfg =
  let want = Reference.Printer.routine_to_string cfg and got = print cfg in
  if got <> want then
    QCheck.Test.fail_reportf "%s: printers differ@.reference:@.%s@.new:@.%s"
      what want got

let printer_tests =
  [
    tc "every opcode and edge immediate prints as before" (fun () ->
        let r n = Reg.make n Reg.Int and f n = Reg.make n Reg.Float in
        let ints = [ 0; 1; -1; 42; -7; max_int; min_int ] in
        let floats =
          [ 0.; -0.; 1.; -2.5; 0.1; 1e308; 5e-324; nan; infinity;
            neg_infinity ]
        in
        let instrs =
          List.concat
            [
              List.concat_map
                (fun n ->
                  Instr.
                    [
                      ldi (r 1) n; lfp (r 2) n; laddr (r 3) ~off:n "a";
                      ldro (r 4) "t" n; addi (r 5) (r 6) n; subi (r 7) (r 8) n;
                      muli (r 9) (r 10) n; loadi (f 11) (r 12) n;
                      storei ~value:(f 13) ~base:(r 14) ~off:n;
                      spill (r 15) n; reload (f 16) n;
                    ])
                ints;
              List.map (fun x -> Instr.lfi (f 1) x) floats;
              List.concat_map
                (fun rel ->
                  Instr.[ cmp rel (r 1) (r 2) (r 3); fcmp rel (r 4) (f 5) (f 6) ])
                Instr.[ Eq; Ne; Lt; Le; Gt; Ge ];
              Instr.
                [
                  laddr (r 3) "sym"; add (r 1) (r 2) (r 3); sub (r 1) (r 2) (r 3);
                  mul (r 1) (r 2) (r 3); div (r 1) (r 2) (r 3);
                  rem (r 1) (r 2) (r 3); fadd (f 1) (f 2) (f 3);
                  fsub (f 1) (f 2) (f 3); fmul (f 1) (f 2) (f 3);
                  fdiv (f 1) (f 2) (f 3); fneg (f 1) (f 2); fabs (f 1) (f 2);
                  itof (f 1) (r 2); ftoi (r 1) (f 2); copy (r 1) (r 2);
                  copy (f 1) (f 2); load (f 1) (r 2); loadx (r 1) (r 2) (r 3);
                  store ~value:(f 1) ~addr:(r 2);
                  storex ~value:(r 1) ~base:(r 2) ~idx:(r 3); jmp "L1";
                  cbr (r 1) "L1" "L2"; ret None; ret (Some (f 1));
                  print_ (r 1); nop;
                ];
            ]
        in
        List.iter
          (fun i ->
            let want = Format.asprintf "%a" Reference.Printer.pp i in
            check Alcotest.string want want (Instr.to_string i);
            check Alcotest.string want want (Format.asprintf "%a" Instr.pp i))
          instrs);
    tc "kernels, plain and allocated, print as before" (fun () ->
        List.iter
          (fun cfg ->
            let name = (cfg : Cfg.t).name in
            check Alcotest.string name
              (Reference.Printer.routine_to_string cfg)
              (print cfg);
            List.iter
              (fun mode ->
                match
                  allocated ~mode ~machine:Remat.Machine.standard cfg
                with
                | Some out ->
                    check Alcotest.string name
                      (Reference.Printer.routine_to_string out)
                      (print out)
                | None -> Alcotest.failf "%s does not allocate" name)
              modes)
          (Lazy.force kernels));
    tc "float and integer data print as before" (fun () ->
        let sym = Iloc.Symbol.make in
        let cfg =
          Cfg.make ~name:"data"
            ~symbols:
              [
                sym "u" 3;
                sym ~readonly:true ~init:(Iloc.Symbol.Int_elts [ 1; -2; max_int ])
                  "i" 4;
                sym ~init:(Iloc.Symbol.Float_elts [ 0.5; -0.; nan; 1e-310 ]) "x"
                  4;
              ]
            [ Block.make ~id:0 ~label:"entry" ~body:[] ~term:(Instr.ret None) () ]
        in
        check Alcotest.string "data" (Reference.Printer.routine_to_string cfg)
          (print cfg));
  ]

(* Generated routines, plain or optimized, unallocated and allocated on a
   machine small enough to spill. *)
let printer_props =
  List.concat_map
    (fun (cname, config) ->
      List.map
        (fun optimize ->
          QCheck.Test.make ~count:40
            ~name:
              (Printf.sprintf "printers agree on %s routines%s" cname
                 (if optimize then " -O" else ""))
            seed_arb
            (fun seed ->
              let cfg = Fuzz.Gen.generate ~config seed in
              let cfg = if optimize then Opt.Pipeline.run cfg else cfg in
              same_text "input" cfg;
              let mode = List.nth modes (seed mod 3) in
              Option.iter (same_text "allocated")
                (allocated ~mode ~machine:small cfg);
              true))
        [ false; true ])
    configs

(* --- lexer and parser --- *)

type outcome = Parsed of Cfg.t | Failed of int * string | Raised of string

let outcome f =
  match f () with
  | cfg -> Parsed cfg
  | exception Iloc.Parser.Error { line; msg } -> Failed (line, msg)
  | exception e -> Raised (Printexc.to_string e)

let outcome_to_string = function
  | Parsed cfg -> print cfg
  | Failed (line, msg) -> Printf.sprintf "Error line %d: %s" line msg
  | Raised e -> "raised " ^ e

let same_outcome a b =
  match (a, b) with
  | Parsed x, Parsed y -> Cfg.structural_equal x y && print x = print y
  | Failed (l, m), Failed (l', m') -> l = l' && m = m'
  | Raised x, Raised y -> x = y
  | _ -> false

let edit_chars = [| ' '; '\t'; '\r'; ';'; '#'; '\n'; '0'; '1'; '7'; '9' |]

(* One to seven seeded edits: insert or delete one of [edit_chars], or
   (rarely) truncate. *)
let edit rng text =
  let s = ref text in
  for _ = 0 to Random.State.int rng 6 do
    let n = String.length !s in
    let pos = Random.State.int rng (n + 1) in
    match Random.State.int rng 9 with
    | 0 -> s := String.sub !s 0 pos
    | 1 | 2 | 3 -> (
        (* the first edit character at or after [pos] *)
        let rec find i =
          if i >= n then None
          else if Array.mem !s.[i] edit_chars then Some i
          else find (i + 1)
        in
        match find pos with
        | Some i -> s := String.sub !s 0 i ^ String.sub !s (i + 1) (n - i - 1)
        | None -> ())
    | _ ->
        let c = edit_chars.(Random.State.int rng (Array.length edit_chars)) in
        s := String.sub !s 0 pos ^ String.make 1 c ^ String.sub !s pos (n - pos)
  done;
  !s

(* Printed kernels and generated routines, and the hand-written ILOC
   kernels' own source (comments included). *)
let base_text seed =
  let ks = Lazy.force kernels in
  match seed mod 4 with
  | 0 -> print (List.nth ks (seed / 4 mod List.length ks))
  | 1 -> (
      let iloc =
        List.filter_map
          (fun (k : Suite.Kernels.kernel) ->
            match k.source with `Iloc s -> Some s | `Mf _ -> None)
          Suite.Kernels.all
      in
      match iloc with
      | [] -> print (List.hd ks)
      | l -> List.nth l (seed / 4 mod List.length l))
  | 2 -> print (Fuzz.Gen.generate ~config:Fuzz.Gen.default seed)
  | _ -> print (Fuzz.Gen.generate ~config:Fuzz.Gen.high_pressure seed)

let parse_same text =
  let want =
    outcome (fun () ->
        Iloc.Parser.routine_of_lines (Reference.Lexer.lex text))
  and got = outcome (fun () -> Iloc.Parser.routine text) in
  if Iloc.Parser.lex text <> Reference.Lexer.lex text then
    QCheck.Test.fail_reportf "lexers differ on:@.%S" text;
  if not (same_outcome want got) then
    QCheck.Test.fail_reportf "parsers differ on:@.%S@.reference: %s@.new: %s"
      text (outcome_to_string want) (outcome_to_string got);
  (match got with
  | Raised e ->
      QCheck.Test.fail_reportf "%s escaped the parser on:@.%S" e text
  | Parsed _ | Failed _ -> ());
  true

let parser_tests =
  [
    tc "lexer splits as before on hand-picked lines" (fun () ->
        List.iter
          (fun text -> ignore (parse_same text))
          [
            ""; "\n"; " \t \n"; "a"; "a b\tc"; "a;b"; "a#b;c"; ";#"; "a\r\nb";
            "\r"; " \r "; "x\n\n\ny"; "a ; b\n c # d\n"; "\n\nlast";
            "trailing \t"; "routine r\nentry:\n  ret ; done\n";
          ]);
    tc "a terminator in mid-block is an error at its line" (fun () ->
        List.iter
          (fun (text, line) ->
            match Iloc.Parser.routine text with
            | _ -> Alcotest.failf "parsed %S" text
            | exception Iloc.Parser.Error e ->
                check Alcotest.int "line" line e.line;
                check Alcotest.string "message"
                  "terminator before the end of block b" e.msg)
          [
            ("routine a\nb:\nret\nret\n", 3);
            ("routine a\nb:\n  r1 <- ldi 1\n  jmp c\n  print r1\n  ret\nc:\n  ret\n", 4);
          ]);
  ]

let parser_props =
  [
    QCheck.Test.make ~count:300 ~name:"parsers agree on edited texts"
      seed_arb (fun seed ->
        let rng = Random.State.make [| seed |] in
        let text = base_text seed in
        ignore (parse_same text);
        parse_same (edit rng text));
  ]

(* --- must-defined check --- *)

let rebuild (cfg : Cfg.t) blocks =
  Cfg.make ~name:cfg.name ~symbols:cfg.symbols blocks

(* Each block with about one in [rate] definitions (φ-nodes and body
   instructions with a destination) deleted. *)
let delete_defs rng ~rate (cfg : Cfg.t) =
  let keep () = Random.State.int rng rate <> 0 in
  List.rev
    (Cfg.fold_blocks
       (fun acc (b : Block.t) ->
         Block.make ~id:b.id ~label:b.label
           ~phis:(List.filter (fun _ -> keep ()) b.phis)
           ~body:(List.filter (fun (i : Instr.t) -> i.dst = None || keep ()) b.body)
           ~term:b.term ()
         :: acc)
       [] cfg)

(* A block nothing branches to, reading registers of the routine; with
   [into], it jumps to that label, so a reachable join has a predecessor
   whose out set stays ⊤. *)
let dead_block rng (cfg : Cfg.t) blocks ?into () =
  let regs = Array.of_list (Reg.Set.elements (Cfg.all_regs cfg)) in
  let body =
    if regs = [||] then []
    else
      List.init (1 + Random.State.int rng 3) (fun _ ->
          Instr.print_ regs.(Random.State.int rng (Array.length regs)))
  in
  let term = match into with Some l -> Instr.jmp l | None -> Instr.ret None in
  let id = List.length blocks in
  blocks
  @ [ Block.make ~id ~label:(Printf.sprintf "dead%d" id) ~body ~term () ]

(* Some [cbr] terminators become a [jmp] to one side, so blocks behind
   the other side may become unreachable. *)
let cut_branches rng blocks =
  List.iter
    (fun (b : Block.t) ->
      match b.term.op with
      | Instr.Cbr (l1, l2) when Random.State.int rng 3 = 0 ->
          b.term <- Instr.jmp (if Random.State.bool rng then l1 else l2)
      | _ -> ())
    blocks;
  blocks

let validate_same ~ssa cfg =
  let want = Reference.Validate.routine cfg
  and got = Iloc.Validate.routine ~ssa cfg in
  let text = function
    | Ok () -> "ok"
    | Error es -> String.concat "\n" (List.map Iloc.Validate.error_to_string es)
  in
  if want <> got then
    QCheck.Test.fail_reportf "validators differ@.reference:@.%s@.new:@.%s"
      (text want) (text got);
  want

(* The non-SSA variant: deleted definitions, cut branches and a dead
   block jumping into the routine.  The SSA variant keeps the φ-nodes'
   predecessors intact (its dead block returns), so [~ssa:true] adds no
   error of its own. *)
let mangled rng ~ssa cfg =
  let cfg = if ssa then Ssa.Construct.run cfg else cfg in
  let blocks = delete_defs rng ~rate:(2 + Random.State.int rng 6) cfg in
  let blocks = if ssa then blocks else cut_branches rng blocks in
  let into =
    if ssa then None
    else
      Some
        (List.nth blocks (Random.State.int rng (List.length blocks)))
          .Block.label
  in
  rebuild cfg (dead_block rng cfg blocks ?into ())

let validate_props =
  List.concat_map
    (fun (cname, config) ->
      List.map
        (fun ssa ->
          QCheck.Test.make ~count:60
            ~name:
              (Printf.sprintf "validators agree on mangled %s routines%s" cname
                 (if ssa then " in SSA form" else ""))
            seed_arb
            (fun seed ->
              let rng = Random.State.make [| seed |] in
              let cfg = Fuzz.Gen.generate ~config seed in
              ignore (validate_same ~ssa:false cfg);
              ignore (validate_same ~ssa (mangled rng ~ssa cfg));
              true))
        [ false; true ])
    configs

let validate_tests =
  [
    tc "kernels with deleted definitions report as before" (fun () ->
        let errors = ref [] in
        List.iteri
          (fun i cfg ->
            List.iter
              (fun ssa ->
                let rng = Random.State.make [| i |] in
                match validate_same ~ssa (mangled rng ~ssa cfg) with
                | Ok () -> ()
                | Error es -> errors := es @ !errors)
              [ false; true ])
          (Lazy.force kernels);
        (* Both kinds of report must be in the corpus, or it pins nothing
           about one of them. *)
        List.iter
          (fun what ->
            check Alcotest.bool what true
              (List.exists
                 (fun (e : Iloc.Validate.error) ->
                   String.starts_with ~prefix:what e.what)
                 !errors))
          [ "phi argument"; "use of possibly-undefined" ]);
  ]

let () =
  Alcotest.run "text"
    [
      ("printed", printed_tests);
      ("printer", printer_tests);
      ("printer-properties", List.map QCheck_alcotest.to_alcotest printer_props);
      ("parser", parser_tests);
      ("parser-properties", List.map QCheck_alcotest.to_alcotest parser_props);
      ("validate", validate_tests);
      ( "validate-properties",
        List.map QCheck_alcotest.to_alcotest validate_props );
    ]
