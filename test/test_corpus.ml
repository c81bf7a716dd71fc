(* The MF corpus under examples/mf: every file must compile, run,
   optimize, allocate under every mode, and produce the expected
   results. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let corpus_dir =
  (* dune runs tests from _build/default/test; manual runs start at the
     project root — probe both, plus an env override *)
  let candidates =
    (match Sys.getenv_opt "REMAT_CORPUS" with Some d -> [ d ] | None -> [])
    @ [ "examples/mf"; "../../../examples/mf"; "../../examples/mf" ]
  in
  match
    List.find_opt
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      candidates
  with
  | Some d -> d
  | None -> "examples/mf"

let corpus_files =
  lazy
    (if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
       Sys.readdir corpus_dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".mf")
       |> List.sort String.compare
       |> List.map (fun f -> Filename.concat corpus_dir f)
     else [])

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_corpus f () =
  match Lazy.force corpus_files with
  | [] -> Alcotest.skip ()
  | files -> f files

let corpus_tests =
  [
    tc "corpus is present" (fun () ->
        match Lazy.force corpus_files with
        | [] -> Alcotest.skip ()
        | files -> check Alcotest.bool "several files" true (List.length files >= 4));
    tc "every file compiles and runs"
      (with_corpus (fun files ->
           List.iter
             (fun path ->
               let cfg = Frontend.Lower.compile (read path) in
               let o = Testutil.run_ok cfg in
               check Alcotest.bool
                 (Filename.basename path ^ " observable")
                 true
                 (o.Sim.Interp.prints <> []))
             files));
    tc "optimize + allocate preserves behaviour"
      (with_corpus (fun files ->
           List.iter
             (fun path ->
               let cfg = Frontend.Lower.compile (read path) in
               let optimized = Opt.Pipeline.run cfg in
               List.iter
                 (fun mode ->
                   let res =
                     Remat.Allocator.allocate ~mode
                       ~machine:Remat.Machine.standard optimized
                   in
                   Testutil.assert_equiv
                     ~what:
                       (Printf.sprintf "%s under %s" (Filename.basename path)
                          (Remat.Mode.to_string mode))
                     cfg res.Remat.Allocator.cfg)
                 Remat.Mode.all)
             files));
    tc "reference outputs"
      (with_corpus (fun files ->
           List.iter
             (fun path ->
               let name = Filename.basename path in
               let o =
                 Testutil.run_ok (Frontend.Lower.compile (read path))
               in
               match (name, o.Sim.Interp.prints) with
               | "dot.mf", [ Sim.Interp.F s ] ->
                   (* sum of i*(9-i) for 1..8 = 120 *)
                   check (Alcotest.float 1e-9) "dot" 120.0 s
               | "newton.mf", [ Sim.Interp.F x; Sim.Interp.I it ] ->
                   check Alcotest.bool "sqrt2" true
                     (Float.abs (x -. Float.sqrt 2.0) < 1e-6);
                   check Alcotest.bool "few iters" true (it < 10)
               | "sieve.mf", [ Sim.Interp.I count ] ->
                   (* primes below 50: 2 3 5 7 11 13 17 19 23 29 31 37 41 43 47 *)
                   check Alcotest.int "primes" 15 count
               | "mandel.mf", [ Sim.Interp.I total ] ->
                   check Alcotest.bool "plausible" true
                     (total > 64 && total < 64 * 32)
               | "matvec.mf", prints ->
                   check Alcotest.int "seven prints" 7 (List.length prints)
               | _ -> Alcotest.failf "unexpected output for %s" name)
             files));
  ]

let () = Alcotest.run "corpus" [ ("mf", corpus_tests) ]
