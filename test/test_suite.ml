(* The workload suite: every kernel must compile, validate, terminate,
   and allocate correctly under several machines and all modes. *)

module Mode = Remat.Mode
module Machine = Remat.Machine

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let kernels = Suite.Kernels.all

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let compile_tests =
  [
    tc "suite is non-trivial" (fun () ->
        check Alcotest.bool "at least 20 kernels" true
          (List.length kernels >= 20));
    tc "names unique" (fun () ->
        let names = List.map (fun k -> k.Suite.Kernels.name) kernels in
        check Alcotest.int "unique" (List.length names)
          (List.length (List.sort_uniq String.compare names)));
    tc "every kernel compiles and validates" (fun () ->
        List.iter
          (fun k ->
            let cfg = Suite.Kernels.cfg_of k in
            check Alcotest.string "routine name" k.Suite.Kernels.name
              cfg.Iloc.Cfg.name;
            match Iloc.Validate.routine cfg with
            | Ok () -> ()
            | Error es ->
                Alcotest.failf "%s invalid: %s" k.Suite.Kernels.name
                  (String.concat "; "
                     (List.map Iloc.Validate.error_to_string es)))
          kernels);
    tc "every kernel terminates and prints" (fun () ->
        List.iter
          (fun k ->
            let cfg = Suite.Kernels.cfg_of k in
            let o = Testutil.run_ok ~fuel:5_000_000 cfg in
            check Alcotest.bool
              (k.Suite.Kernels.name ^ " observable")
              true
              (o.Sim.Interp.prints <> [] || o.Sim.Interp.return <> None))
          kernels);
  ]

(* spot-check a few kernels against independently computed answers *)
let reference_tests =
  let prints k =
    (Testutil.run_ok (Suite.Kernels.cfg_of (Suite.Kernels.find k)))
      .Sim.Interp.prints
  in
  [
    tc "bubble sorts" (fun () ->
        let expected = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ] in
        let got =
          List.map
            (function Sim.Interp.I n -> n | _ -> Alcotest.fail "float")
            (prints "bubble")
        in
        check (Alcotest.list Alcotest.int) "sorted" expected got);
    tc "prefix reduction" (fun () ->
        (* sums of s[0], s[2], ... over the prefix table *)
        let a = [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 8; 9; 7; 9; 3; 2; 3; 8; 4 ] in
        let s = List.fold_left_map (fun acc x -> (acc + x, acc + x)) 0 a |> snd in
        let expected =
          List.filteri (fun i _ -> i mod 2 = 0) s |> List.fold_left ( + ) 0
        in
        match prints "prefix" with
        | [ Sim.Interp.I got ] -> check Alcotest.int "acc" expected got
        | _ -> Alcotest.fail "unexpected prints");
    tc "bsearch finds every multiple present" (fun () ->
        match prints "bsearch" with
        | [ Sim.Interp.I found; Sim.Interp.I probes ] ->
            (* table values divisible by 8 at q in 0..160 step 8: 104 and
               152 are the hits (both in table and ≡ 0 mod 8). *)
            check Alcotest.int "found" 2 found;
            check Alcotest.bool "probes sane" true (probes > 0)
        | _ -> Alcotest.fail "unexpected prints");
    tc "ihbtr histogram counts samples" (fun () ->
        match prints "ihbtr" with
        | [ Sim.Interp.I a; Sim.Interp.I b; Sim.Interp.I c; Sim.Interp.I d ] ->
            check Alcotest.int "total" 32 (a + b + c + d)
        | _ -> Alcotest.fail "unexpected prints");
    tc "sgemm trace is positive" (fun () ->
        match prints "sgemm" with
        | [ Sim.Interp.F t ] -> check Alcotest.bool "positive" true (t > 0.0)
        | _ -> Alcotest.fail "unexpected prints");
    tc "quanc8 approximates arctan(2)" (fun () ->
        (* integral of 1/(1+x^2) from 0 to 2 = atan 2 ≈ 1.1071 *)
        match prints "quanc8" with
        | [ Sim.Interp.F v ] ->
            check Alcotest.bool
              (Printf.sprintf "got %g" v)
              true
              (Float.abs (v -. Float.atan 2.0) < 0.01)
        | _ -> Alcotest.fail "unexpected prints");
  ]

let machines =
  [ Machine.make ~name:"small" ~k_int:8 ~k_float:8; Machine.standard ]

let allocation_tests =
  [
    tc "all kernels allocate correctly in all modes" (fun () ->
        List.iter
          (fun k ->
            let cfg = Suite.Kernels.cfg_of k in
            List.iter
              (fun mode ->
                List.iter
                  (fun machine ->
                    let res = Testutil.alloc ~mode ~machine cfg in
                    Testutil.assert_equiv
                      ~what:
                        (Printf.sprintf "%s/%s/%s" k.Suite.Kernels.name
                           (Mode.to_string mode) machine.Machine.name)
                      cfg res.Remat.Allocator.cfg)
                  machines)
              Mode.all)
          kernels);
    tc "standard machine causes spilling somewhere" (fun () ->
        let spilled =
          List.exists
            (fun k ->
              let res =
                Testutil.alloc ~mode:Mode.Briggs_remat ~machine:Machine.standard
                  (Suite.Kernels.cfg_of k)
              in
              res.Remat.Allocator.spilled_memory > 0
              || res.Remat.Allocator.spilled_remat > 0)
            kernels
        in
        check Alcotest.bool "pressure exists" true spilled);
    tc "huge machine is nearly perfect" (fun () ->
        (* §5.2's premise: with 128 registers per class no kernel needs
           memory spills, so the huge allocation is a fair baseline. *)
        List.iter
          (fun k ->
            let res =
              Testutil.alloc ~machine:Machine.huge
                (Suite.Kernels.cfg_of ~optimize:true k)
            in
            check Alcotest.int
              (k.Suite.Kernels.name ^ " memory spills")
              0 res.Remat.Allocator.spilled_memory)
          kernels);
    tc "remat wins on the pointer kernels" (fun () ->
        List.iter
          (fun name ->
            let cfg = Suite.Kernels.cfg_of (Suite.Kernels.find name) in
            let cycles mode =
              let res =
                Testutil.alloc ~mode ~machine:Machine.standard cfg
              in
              Sim.Counts.cycles
                (Testutil.run_ok res.Remat.Allocator.cfg).Sim.Interp.counts
            in
            let chaitin = cycles Mode.Chaitin_remat in
            let briggs = cycles Mode.Briggs_remat in
            check Alcotest.bool
              (Printf.sprintf "%s: briggs %d <= chaitin %d" name briggs chaitin)
              true (briggs <= chaitin))
          [ "ptrsweep" ]);
  ]

let figure_tests =
  [
    tc "figures render" (fun () ->
        (* each figure prints without raising and mentions its subject *)
        let render f =
          let buf = Buffer.create 4096 in
          let ppf = Format.formatter_of_buffer buf in
          f ppf;
          Format.pp_print_flush ppf ();
          Buffer.contents buf
        in
        check Alcotest.bool "fig1" true
          (contains (render Suite.Figures.fig1) "Rematerialization versus");
        check Alcotest.bool "fig2" true
          (contains (render Suite.Figures.fig2) "renumber");
        check Alcotest.bool "fig3" true
          (contains (render Suite.Figures.fig3) "split copies inserted");
        check Alcotest.bool "fig4" true
          (contains (render Suite.Figures.fig4) "dynamic instruction counts"));
    tc "figure 1 spills under its machine" (fun () ->
        let res =
          Remat.Allocator.allocate ~mode:Mode.Chaitin_remat
            ~machine:Suite.Figures.fig1_machine
            (Suite.Figures.fig1_source ())
        in
        check Alcotest.bool "spilled" true
          (res.Remat.Allocator.spilled_memory > 0
          || res.Remat.Allocator.spilled_remat > 0));
  ]

let table_tests =
  [
    tc "table 1 keeps the changed rows above the noise floor" (fun () ->
        List.iter
          (fun (r : Suite.Report.table1_row) ->
            let name = r.Suite.Report.t1_kernel.Suite.Kernels.name in
            let opt = r.Suite.Report.optimistic and rem = r.Suite.Report.remat in
            check Alcotest.bool (name ^ " differs") true (opt <> rem);
            check Alcotest.bool (name ^ " is not noise") true
              (abs opt >= 8 || abs rem >= 8))
          (Suite.Report.table1 ()));
    tc "table 1 total is positive exactly when Remat saves cycles" (fun () ->
        (* Spill cost can be negative (the 16+16 allocation beating the
           128+128 baseline), so the sign of the percentage must come
           from the saving alone. *)
        List.iter
          (fun k ->
            let r = Suite.Report.table1_row k in
            let name = k.Suite.Kernels.name in
            check Alcotest.bool
              (Printf.sprintf "%s: %d -> %d, total %.1f%%" name
                 r.Suite.Report.optimistic r.Suite.Report.remat
                 r.Suite.Report.total_pct)
              (r.Suite.Report.remat < r.Suite.Report.optimistic)
              (r.Suite.Report.total_pct > 0.))
          kernels);
  ]

(* The one JSON string escaper every BENCH and summary writer uses. *)
let json_tests =
  let esc = Suite.Report.json_string in
  let str = Alcotest.string in
  [
    tc "quote and backslash are escaped" (fun () ->
        check str "plain" {|"fehl"|} (esc "fehl");
        check str "quote" {|"a\"b"|} (esc {|a"b|});
        check str "backslash" {|"a\\b"|} (esc {|a\b|});
        check str "empty" {|""|} (esc ""));
    tc "newline, tab and return take short escapes" (fun () ->
        check str "short" {|"\n\t\r"|} (esc "\n\t\r"));
    tc "other control bytes become \\u00XX" (fun () ->
        check str "nul" {|"\u0000"|} (esc "\000");
        check str "bell" {|"\u0007"|} (esc "\007");
        check str "escape" {|"x\u001by"|} (esc "x\027y");
        check str "unit separator" {|"\u001f"|} (esc "\031");
        (* space is the first byte that passes through *)
        check str "space" {|" "|} (esc " "));
    tc "DEL and bytes from 0x80 up pass through unchanged" (fun () ->
        check str "del" "\"\127\"" (esc "\127");
        check str "utf-8" "\"caf\xc3\xa9 \xe2\x86\x92\""
          (esc "caf\xc3\xa9 \xe2\x86\x92");
        check str "0xff" "\"\255\"" (esc "\255"));
  ]

(* BENCH_race.json's deterministic fields, pinned: a fresh one-repeat
   race must reproduce every kernel's cycles, spill and coalesce counts
   for both families.  Allocation times are the only fields that vary
   between runs, so both sides blank them before comparing. *)
let race_tests =
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let blank_seconds json =
    let key = {|"alloc_seconds":|} in
    let n = String.length json and kl = String.length key in
    let b = Buffer.create n in
    let rec go i =
      if i >= n then ()
      else if i + kl <= n && String.sub json i kl = key then begin
        Buffer.add_string b key;
        Buffer.add_char b '_';
        let rec skip j =
          match if j < n then json.[j] else ' ' with
          | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> skip (j + 1)
          | _ -> j
        in
        go (skip (i + kl))
      end
      else begin
        Buffer.add_char b json.[i];
        go (i + 1)
      end
    in
    go 0;
    Buffer.contents b
  in
  (* The body of [race_json rows]: its kernel objects, comma-separated. *)
  let kernel_objects json =
    let json = blank_seconds (String.trim json) in
    let pre = {|{"bench":"race","kernels":[|} and post = "]}" in
    let lp = String.length pre and n = String.length json in
    if
      n < lp + 2
      || String.sub json 0 lp <> pre
      || String.sub json (n - 2) 2 <> post
    then Alcotest.failf "not a race record: %s" json;
    String.sub json lp (n - lp - 2)
  in
  [
    tc "BENCH_race.json cycles, spills and coalesces reproduce" (fun () ->
        (* dune runs tests from _build/default/test; manual runs start
           at the project root *)
        let path =
          List.find_opt Sys.file_exists
            [ "../BENCH_race.json"; "BENCH_race.json" ]
          |> Option.value ~default:"../BENCH_race.json"
        in
        let pinned = kernel_objects (read path) in
        let rows = Suite.Report.race ~repeats:1 () in
        check Alcotest.int "one row per kernel" (List.length kernels)
          (List.length rows);
        let objs =
          List.map (fun r -> kernel_objects (Suite.Report.race_json [ r ])) rows
        in
        List.iter2
          (fun (r : Suite.Report.race_row) o ->
            if not (contains pinned o) then
              Alcotest.failf "%s: fresh %s is not in BENCH_race.json"
                r.Suite.Report.race_kernel.Suite.Kernels.name o)
          rows objs;
        check Alcotest.string "kernel order" pinned (String.concat "," objs));
  ]

let () =
  Alcotest.run "suite"
    [
      ("compile", compile_tests);
      ("reference", reference_tests);
      ("allocation", allocation_tests);
      ("figures", figure_tests);
      ("tables", table_tests);
      ("json", json_tests);
      ("race", race_tests);
    ]
