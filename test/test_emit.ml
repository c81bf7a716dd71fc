(* Tests for the ILOC -> C emitter (the paper's Figure 4 pipeline).

   When a system C compiler is available, emitted programs are compiled
   and executed, and their observable output AND dynamic instruction
   counts must match the interpreter exactly — a differential test of
   both the emitter and the interpreter's instrumentation. *)

module Interp = Sim.Interp

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let have_cc =
  lazy (Sys.command "cc --version > /dev/null 2>&1" = 0)

let compile_and_run cfg =
  let src = Filename.temp_file "remat_emit" ".c" in
  let exe = Filename.temp_file "remat_emit" ".exe" in
  let out = Filename.temp_file "remat_emit" ".out" in
  let err = Filename.temp_file "remat_emit" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> try Sys.remove f with _ -> ()) [ src; exe; out; err ])
    (fun () ->
      let oc = open_out src in
      output_string oc (Emit.C_emitter.routine_to_string cfg);
      close_out oc;
      let cc_cmd = Printf.sprintf "cc -O1 -o %s %s -lm 2> %s" exe src err in
      if Sys.command cc_cmd <> 0 then
        Alcotest.failf "cc failed on emitted C for %s" cfg.Iloc.Cfg.name;
      if Sys.command (Printf.sprintf "%s > %s 2>> %s" exe out err) <> 0 then
        Alcotest.failf "emitted binary crashed for %s" cfg.Iloc.Cfg.name;
      let read_lines path =
        let ic = open_in path in
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file ->
              close_in ic;
              List.rev acc
        in
        go []
      in
      (read_lines out, read_lines err))

(* Compare the C program's stdout against the interpreter's outcome. *)
let check_against_interp cfg =
  let outcome = Interp.run cfg in
  let stdout_lines, stderr_lines = compile_and_run cfg in
  let expected =
    List.map
      (function
        | Interp.I n -> Printf.sprintf "%d" n
        | Interp.F x -> Printf.sprintf "%.17g" x)
      outcome.Interp.prints
    @
    match outcome.Interp.return with
    | Some (Interp.I n) -> [ Printf.sprintf "returned %d" n ]
    | Some (Interp.F x) -> [ Printf.sprintf "returned %.17g" x ]
    | None -> []
  in
  check (Alcotest.list Alcotest.string)
    (cfg.Iloc.Cfg.name ^ " output")
    expected stdout_lines;
  (* dynamic counts cross-check: the stderr trailer must equal the
     interpreter's counters *)
  let counts_line =
    List.find_opt
      (fun l -> String.length l > 7 && String.sub l 0 7 = "counts:")
      stderr_lines
  in
  let c = outcome.Interp.counts in
  let expected_counts =
    Printf.sprintf "counts: loads=%d stores=%d copies=%d ldi=%d addi=%d other=%d"
      (Sim.Counts.get c Iloc.Instr.Cat_load)
      (Sim.Counts.get c Iloc.Instr.Cat_store)
      (Sim.Counts.get c Iloc.Instr.Cat_copy)
      (Sim.Counts.get c Iloc.Instr.Cat_ldi)
      (Sim.Counts.get c Iloc.Instr.Cat_addi)
      (Sim.Counts.get c Iloc.Instr.Cat_other)
  in
  match counts_line with
  | Some l ->
      check Alcotest.string (cfg.Iloc.Cfg.name ^ " counts") expected_counts l
  | None -> Alcotest.fail "no counts line on stderr"

let skip_without_cc f () =
  if Lazy.force have_cc then f ()
  else Alcotest.skip ()

(* kernels with no integer-overflow dependence *)
let differential_kernels =
  [ "fehl"; "spline"; "solve"; "sgemm"; "saxpy"; "bubble"; "bsearch";
    "conv1d"; "horner"; "lectur"; "ptrsweep"; "frameaddr" ]

(* One routine exercising every ILOC opcode the emitter translates. *)
let all_ops_routine () =
  Iloc.Parser.routine
    "routine allops\n\
     data buf[8] = { 10 20 30 40 50 60 70 80 }\n\
     data fbuf[4] = f{ 0x1p+0 0x1p+1 0x1.8p+1 0x1p+2 }\n\
     data const ro[3] = { 7 8 9 }\n\
     entry:\n\
    \  r1 <- ldi 12\n\
    \  f1 <- lfi 2.5\n\
    \  r2 <- laddr @buf\n\
    \  r3 <- laddr @buf 2\n\
    \  r4 <- lfp 16\n\
    \  r5 <- ldro @ro 1\n\
    \  r6 <- add r1 r5\n\
    \  r7 <- sub r6 r5\n\
    \  r8 <- mul r7 r5\n\
    \  r9 <- div r8 r5\n\
    \  r10 <- rem r8 r5\n\
    \  r11 <- cmp_le r9 r10\n\
    \  r12 <- addi r11 100\n\
    \  r13 <- subi r12 1\n\
    \  r14 <- muli r13 3\n\
    \  f2 <- lfi 1.25\n\
    \  f3 <- fadd f1 f2\n\
    \  f4 <- fsub f3 f2\n\
    \  f5 <- fmul f4 f2\n\
    \  f6 <- fdiv f5 f2\n\
    \  r15 <- fcmp_gt f6 f2\n\
    \  f7 <- fneg f6\n\
    \  f8 <- fabs f7\n\
    \  f9 <- itof r14\n\
    \  r16 <- ftoi f8\n\
    \  r17 <- copy r16\n\
    \  f10 <- copy f9\n\
    \  r18 <- load r2\n\
    \  r19 <- ldi 3\n\
    \  r20 <- loadx r2 r19\n\
    \  r21 <- loadi r2 5\n\
    \  storei r21 -> r2 7\n\
    \  store r18 -> r3\n\
    \  storex r20 -> r2 r19\n\
    \  spill r17 -> [0]\n\
    \  r22 <- reload [0]\n\
    \  spill f10 -> [1]\n\
    \  f11 <- reload [1]\n\
    \  r23 <- sub r4 r4\n\
    \  nop\n\
    \  r24 <- add r22 r23\n\
    \  r25 <- add r24 r15\n\
    \  jmp next\n\
     next:\n\
    \  r26 <- ldi 0\n\
    \  r27 <- cmp_gt r25 r26\n\
    \  cbr r27 yes no\n\
     yes:\n\
    \  print r25\n\
    \  print f11\n\
    \  jmp fin\n\
     no:\n\
    \  print r26\n\
    \  jmp fin\n\
     fin:\n\
    \  ret r25\n"

let emitter_tests =
  [
    tc "differential: every opcode"
      (skip_without_cc (fun () -> check_against_interp (all_ops_routine ())));
    tc "emitted C is syntactically plausible" (fun () ->
        let text =
          Emit.C_emitter.routine_to_string (Testutil.counted_loop ())
        in
        List.iter
          (fun frag ->
            if
              not
                (let n = String.length text and m = String.length frag in
                 let rec go i =
                   i + m <= n && (String.sub text i m = frag || go (i + 1))
                 in
                 go 0)
            then Alcotest.failf "emitted C lacks %S" frag)
          [ "#include <stdio.h>"; "int main(void)"; "goto BB_entry;";
            "n_other++"; "static cell mem[" ]);
    tc "ssa form rejected" (fun () ->
        let ssa = Ssa.Construct.run (Testutil.diamond ()) in
        try
          ignore (Emit.C_emitter.routine_to_string ssa);
          Alcotest.fail "accepted SSA"
        with Invalid_argument _ -> ());
    tc "differential: unallocated kernels"
      (skip_without_cc (fun () ->
           List.iter
             (fun name ->
               check_against_interp
                 (Suite.Kernels.cfg_of (Suite.Kernels.find name)))
             differential_kernels));
    tc "differential: optimized + allocated kernels"
      (skip_without_cc (fun () ->
           List.iter
             (fun name ->
               let cfg =
                 Suite.Kernels.cfg_of ~optimize:true
                   (Suite.Kernels.find name)
               in
               let res =
                 Remat.Allocator.allocate ~machine:Remat.Machine.standard cfg
               in
               check_against_interp res.Remat.Allocator.cfg)
             [ "fehl"; "sgemm"; "ptrsweep"; "tomcatv" ]));
    tc "differential: figure 1 under both allocators"
      (skip_without_cc (fun () ->
           let cfg = Suite.Figures.fig1_source () in
           List.iter
             (fun mode ->
               let res =
                 Remat.Allocator.allocate ~mode
                   ~machine:Suite.Figures.fig1_machine cfg
               in
               check_against_interp res.Remat.Allocator.cfg)
             [ Remat.Mode.Chaitin_remat; Remat.Mode.Briggs_remat ]));
  ]

let () = Alcotest.run "emit" [ ("c-emitter", emitter_tests) ]
