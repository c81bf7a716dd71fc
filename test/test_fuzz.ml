(* Tests for the lib/fuzz subsystem: generator determinism and
   invariants, the differential oracle, the delta-debugging reducer (on a
   deliberately planted miscompile) and campaign determinism across -j. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

module Cfg = Iloc.Cfg

(* --- generator --- *)

let gen_tests =
  [
    tc "same seed, same routine" (fun () ->
        List.iter
          (fun seed ->
            let a = Fuzz.Gen.generate seed and b = Fuzz.Gen.generate seed in
            check Alcotest.bool "structural" true (Cfg.structural_equal a b);
            check Alcotest.string "printed"
              (Iloc.Printer.routine_to_string a)
              (Iloc.Printer.routine_to_string b))
          [ 0; 1; 42; 1000; 123456789 ]);
    tc "generated routines validate and run" (fun () ->
        for seed = 0 to 24 do
          let cfg = Fuzz.Gen.generate seed in
          (match Iloc.Validate.routine cfg with
          | Ok () -> ()
          | Error es ->
              Alcotest.failf "seed %d invalid: %s" seed
                (String.concat "; "
                   (List.map Iloc.Validate.error_to_string es)));
          match Fuzz.Oracle.reference cfg with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "seed %d does not run: %s" seed m
        done);
    tc "high-pressure config validates and runs" (fun () ->
        for seed = 0 to 9 do
          let cfg =
            Fuzz.Gen.generate ~config:Fuzz.Gen.high_pressure seed
          in
          (match Iloc.Validate.routine cfg with
          | Ok () -> ()
          | Error es ->
              Alcotest.failf "seed %d invalid: %s" seed
                (String.concat "; "
                   (List.map Iloc.Validate.error_to_string es)));
          match Fuzz.Oracle.reference cfg with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "seed %d does not run: %s" seed m
        done);
  ]

(* --- oracle --- *)

(* --- the small-edit mutator behind the serving load generator --- *)

let mutate_prop =
  QCheck.Test.make ~count:150
    ~name:"mutate is deterministic and Validate-clean"
    QCheck.(pair Testutil.Gen_prog.arbitrary_cfg small_nat)
    (fun (cfg, seed) ->
      let a = Fuzz.Gen.mutate ~seed cfg in
      let b = Fuzz.Gen.mutate ~seed cfg in
      (* Deterministic in (seed, cfg)... *)
      Cfg.structural_equal a b
      && String.equal
           (Iloc.Printer.routine_to_string a)
           (Iloc.Printer.routine_to_string b)
      (* ...and as clean as its input: generated routines validate, so
         every mutant must too. *)
      &&
      match Iloc.Validate.routine a with
      | Ok () -> true
      | Error es ->
          QCheck.Test.fail_reportf "mutant of seed invalid: %s"
            (String.concat "; " (List.map Iloc.Validate.error_to_string es)))

let mutate_tests =
  [
    tc "mutation leaves the input routine untouched" (fun () ->
        for seed = 0 to 9 do
          let cfg = Fuzz.Gen.generate seed in
          let before = Iloc.Printer.routine_to_string cfg in
          ignore (Fuzz.Gen.mutate ~seed:(seed * 7 + 1) cfg);
          check Alcotest.string
            (Printf.sprintf "seed %d" seed)
            before
            (Iloc.Printer.routine_to_string cfg)
        done);
    tc "mutation actually edits most routines" (fun () ->
        let changed = ref 0 in
        for seed = 0 to 19 do
          let cfg = Fuzz.Gen.generate seed in
          let m = Fuzz.Gen.mutate ~seed:(100 + seed) cfg in
          if
            not
              (String.equal
                 (Iloc.Printer.routine_to_string cfg)
                 (Iloc.Printer.routine_to_string m))
          then incr changed
        done;
        check Alcotest.bool
          (Printf.sprintf "%d/20 routines changed" !changed)
          true (!changed >= 15));
    tc "different seeds reach different edits" (fun () ->
        let cfg = Fuzz.Gen.generate 5 in
        let texts =
          List.init 12 (fun s ->
              Iloc.Printer.routine_to_string (Fuzz.Gen.mutate ~seed:s cfg))
        in
        check Alcotest.bool "at least three distinct mutants" true
          (List.length (List.sort_uniq String.compare texts) >= 3));
    tc "mutants still run under the reference interpreter" (fun () ->
        for seed = 0 to 14 do
          let m = Fuzz.Gen.mutate ~seed:(seed * 13 + 3) (Fuzz.Gen.generate seed) in
          match Fuzz.Oracle.reference m with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "seed %d mutant does not run: %s" seed msg
        done);
  ]

(* A counted loop of [n] iterations, three instructions each. *)
let spin n =
  let b = Iloc.Builder.create "spin" in
  let i = Iloc.Builder.ireg b in
  let zero = Iloc.Builder.ireg b in
  let t = Iloc.Builder.ireg b in
  Iloc.Builder.block b "entry"
    [ Iloc.Instr.ldi i n; Iloc.Instr.ldi zero 0 ]
    ~term:(Iloc.Instr.jmp "loop");
  Iloc.Builder.block b "loop"
    [ Iloc.Instr.subi i i 1; Iloc.Instr.cmp Iloc.Instr.Gt t i zero ]
    ~term:(Iloc.Instr.cbr t "loop" "done");
  Iloc.Builder.block b "done" [] ~term:(Iloc.Instr.ret (Some i));
  Iloc.Builder.finish b

let oracle_tests =
  [
    tc "the reference runs on a 200 000-instruction budget" (fun () ->
        (match Fuzz.Oracle.reference (spin 60_000) with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "180k instructions refused: %s" m);
        match Fuzz.Oracle.reference (spin 70_000) with
        | Ok _ -> Alcotest.fail "210k instructions ran past the budget"
        | Error _ -> ());
    tc "fixed fixtures are clean across the matrix" (fun () ->
        List.iter
          (fun (name, cfg) ->
            match Fuzz.Oracle.check cfg with
            | Ok [] -> ()
            | Ok ((c, d) :: _) ->
                Alcotest.failf "%s diverges under %s: %s" name
                  (Fuzz.Oracle.config_name c)
                  (Fuzz.Oracle.describe d)
            | Error m -> Alcotest.failf "%s reference failed: %s" name m)
          (Testutil.all_fixed ()));
    tc "generated seeds are clean across the matrix" (fun () ->
        for seed = 0 to 9 do
          match Fuzz.Oracle.check (Fuzz.Gen.generate seed) with
          | Ok [] -> ()
          | Ok ((c, d) :: _) ->
              Alcotest.failf "seed %d diverges under %s: %s" seed
                (Fuzz.Oracle.config_name c)
                (Fuzz.Oracle.describe d)
          | Error m -> Alcotest.failf "seed %d reference failed: %s" seed m
        done);
  ]

(* --- reducer, on a planted spill-slot off-by-one --- *)

(* With [fault_reload_skew = 1] every reload reads its neighbour's frame
   slot, so any configuration that spills through memory miscompiles:
   either a wrong value flows out (wrong outcome) or an unwritten slot is
   read (runtime error).  The oracle must catch it and the reducer must
   shrink the repro while the same configuration keeps failing. *)
let planted_config =
  {
    Fuzz.Oracle.optimize = false;
    mode = Remat.Mode.Briggs_remat;
    machine = Remat.Machine.make ~name:"tiny" ~k_int:4 ~k_float:4;
  }

let non_crash_divergence cfg =
  match Fuzz.Oracle.reference cfg with
  | Error _ -> None
  | Ok reference -> (
      match Fuzz.Oracle.check_config ~reference cfg planted_config with
      | Some d when Fuzz.Oracle.class_of d <> "crash" -> Some d
      | _ -> None)

let with_planted_fault f =
  Remat.Spill_code.fault_reload_skew := 1;
  Fun.protect ~finally:(fun () -> Remat.Spill_code.fault_reload_skew := 0) f

let reduce_tests =
  [
    tc "oracle catches the planted off-by-one" (fun () ->
        (* Sound allocator first: the fixture must be clean... *)
        let cfg = Testutil.high_pressure () in
        (match non_crash_divergence cfg with
        | None -> ()
        | Some d ->
            Alcotest.failf "diverges without the fault: %s"
              (Fuzz.Oracle.describe d));
        (* ... and miscompile once the fault is armed. *)
        with_planted_fault (fun () ->
            match non_crash_divergence cfg with
            | Some _ -> ()
            | None -> Alcotest.fail "planted miscompile not detected"))
    ;
    tc "reducer shrinks the planted repro to <= 15 instructions" (fun () ->
        with_planted_fault (fun () ->
            let cfg = Testutil.high_pressure () in
            let interesting c = non_crash_divergence c <> None in
            check Alcotest.bool "repro is interesting" true (interesting cfg);
            let red = Fuzz.Reduce.run ~interesting cfg in
            let n0 = Fuzz.Reduce.instr_count cfg in
            let n1 = Fuzz.Reduce.instr_count red in
            if n1 > 15 then
              Alcotest.failf "reduced repro still has %d instructions (from %d):\n%s"
                n1 n0
                (Iloc.Printer.routine_to_string red);
            check Alcotest.bool "reduced repro still diverges" true
              (interesting red);
            (* The repro is a valid routine and survives a print/parse trip,
               so the persisted .il file reproduces the bug as-is. *)
            (match Iloc.Validate.routine red with
            | Ok () -> ()
            | Error es ->
                Alcotest.failf "reduced repro invalid: %s"
                  (String.concat "; "
                     (List.map Iloc.Validate.error_to_string es)));
            let red2 =
              Iloc.Parser.routine (Iloc.Printer.routine_to_string red)
            in
            check Alcotest.bool "reparsed repro still diverges" true
              (interesting red2)));
  ]

(* --- planted fault in SSA destruction --- *)

(* [Destruct.fault_swap_seq = 1] swaps the first adjacent dependent pair
   of a sequentialized parallel copy — exactly the ordering obligation
   sequentialization exists to meet.  The differential oracle must flag
   the miscompile, the static verifier must name the faulty block and
   instruction, and the reducer must shrink the repro. *)
let ssa_planted_config =
  {
    Fuzz.Oracle.optimize = false;
    mode = Remat.Mode.Ssa_remat;
    machine = Remat.Machine.make ~name:"tiny" ~k_int:4 ~k_float:4;
  }

let ssa_divergence cfg =
  match Fuzz.Oracle.reference cfg with
  | Error _ -> None
  | Ok reference -> (
      match Fuzz.Oracle.check_config ~reference cfg ssa_planted_config with
      | Some d when Fuzz.Oracle.class_of d <> "crash" -> Some d
      | _ -> None)

let with_swap_fault f =
  Ssa.Destruct.fault_swap_seq := 1;
  Fun.protect ~finally:(fun () -> Ssa.Destruct.fault_swap_seq := 0) f

(* First generated routine whose destruction emits a dependent pair the
   fault can swap into a divergence (searched, so the test tracks
   generator and pipeline changes instead of pinning one seed). *)
let find_ssa_repro () =
  let rec go seed =
    if seed > 63 then Alcotest.fail "no seed trips the destruction fault"
    else
      let cfg = Fuzz.Gen.generate seed in
      if ssa_divergence cfg <> None then cfg else go (seed + 1)
  in
  go 0

let destruct_fault_tests =
  [
    tc "oracle catches the swapped parallel-copy step" (fun () ->
        let cfg = with_swap_fault find_ssa_repro in
        (* The same routine must be clean without the fault... *)
        match ssa_divergence cfg with
        | Some d ->
            Alcotest.failf "diverges without the fault: %s"
              (Fuzz.Oracle.describe d)
        | None -> ());
    tc "static verifier names the faulty block and instruction" (fun () ->
        let cfg = with_swap_fault find_ssa_repro in
        let out =
          with_swap_fault (fun () ->
              (Remat.Allocator.allocate ~mode:Remat.Mode.Ssa_remat
                 ~machine:ssa_planted_config.Fuzz.Oracle.machine cfg)
                .Remat.Allocator.cfg)
        in
        match Verify.Check.routine ~input:cfg ~output:out ~k_int:4 ~k_float:4 with
        | Ok _ -> Alcotest.fail "verifier accepted the swapped copy sequence"
        | Error es ->
            check Alcotest.bool "an error pinpoints block and instruction" true
              (List.exists
                 (fun (e : Verify.Error.t) ->
                   e.Verify.Error.block <> None
                   && e.Verify.Error.index <> None)
                 es));
    tc "reducer shrinks the destruction repro to <= 15 instructions"
      (fun () ->
        with_swap_fault (fun () ->
            let cfg = find_ssa_repro () in
            let interesting c = ssa_divergence c <> None in
            let red = Fuzz.Reduce.run ~interesting cfg in
            let n1 = Fuzz.Reduce.instr_count red in
            if n1 > 15 then
              Alcotest.failf
                "reduced repro still has %d instructions (from %d):\n%s" n1
                (Fuzz.Reduce.instr_count cfg)
                (Iloc.Printer.routine_to_string red);
            check Alcotest.bool "reduced repro still diverges" true
              (interesting red)));
  ]

(* --- campaign --- *)

let campaign_tests =
  [
    tc "summary is identical under -j 1 and -j 2" (fun () ->
        let run jobs =
          Fuzz.Campaign.run ~runs:20 ~seed:42 ~jobs ()
        in
        let a = run 1 and b = run 2 in
        check Alcotest.string "json"
          (Fuzz.Campaign.summary_to_json a)
          (Fuzz.Campaign.summary_to_json b);
        check Alcotest.int "clean tree has no divergences" 0
          (List.length a.Fuzz.Campaign.failures));
    tc "campaign reports and buckets planted divergences" (fun () ->
        with_planted_fault (fun () ->
            let matrix = [ planted_config ] in
            let gen_config = Fuzz.Gen.high_pressure in
            let s =
              Fuzz.Campaign.run ~gen_config ~matrix ~runs:6 ~seed:7 ~jobs:1 ()
            in
            if s.Fuzz.Campaign.failures = [] then
              Alcotest.fail "no divergence found over high-pressure seeds";
            List.iter
              (fun (r : Fuzz.Campaign.report) ->
                check Alcotest.bool "reduction never grows the repro" true
                  (r.reduced_instrs <= r.original_instrs);
                check Alcotest.string "failing config recorded"
                  (Fuzz.Oracle.config_name planted_config)
                  r.config)
              s.Fuzz.Campaign.failures;
            check Alcotest.bool "buckets non-empty" true
              (s.Fuzz.Campaign.buckets <> [])));
    tc "save writes summary.json and one .il per failure" (fun () ->
        with_planted_fault (fun () ->
            let s =
              Fuzz.Campaign.run ~gen_config:Fuzz.Gen.high_pressure
                ~matrix:[ planted_config ] ~reduce:false ~runs:3 ~seed:7
                ~jobs:1 ()
            in
            let dir = "fuzz-corpus-under-test" in
            Fuzz.Campaign.save ~dir s;
            check Alcotest.bool "summary.json" true
              (Sys.file_exists (Filename.concat dir "summary.json"));
            List.iter
              (fun (r : Fuzz.Campaign.report) ->
                let f =
                  Filename.concat dir (Printf.sprintf "seed-%d.il" r.seed)
                in
                check Alcotest.bool f true (Sys.file_exists f);
                (* The commented header keeps the repro parseable. *)
                ignore
                  (Iloc.Parser.routine
                     (let ic = open_in_bin f in
                      Fun.protect
                        ~finally:(fun () -> close_in ic)
                        (fun () ->
                          really_input_string ic (in_channel_length ic)))))
              s.Fuzz.Campaign.failures));
  ]

let () =
  Alcotest.run "fuzz"
    [
      ("gen", gen_tests);
      ("mutate", mutate_tests @ [ QCheck_alcotest.to_alcotest mutate_prop ]);
      ("oracle", oracle_tests);
      ("reduce", reduce_tests);
      ("destruct-fault", destruct_fault_tests);
      ("campaign", campaign_tests);
    ]
