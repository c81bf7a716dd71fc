(* ralloc — command-line driver for the rematerialization allocator.

   Sources are given as:
     - a path ending in [.mf]   : an MF program, compiled by the frontend
     - any other path           : textual ILOC
     - [kernel:NAME]            : a routine from the built-in suite

   Subcommands: parse, opt, alloc, batch, run, kernels, dot, emit,
   report, fuzz, bench, reduce. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_source src =
  let prefix = "kernel:" in
  if String.length src > String.length prefix
     && String.sub src 0 (String.length prefix) = prefix then
    let name = String.sub src (String.length prefix)
        (String.length src - String.length prefix) in
    Suite.Kernels.cfg_of (Suite.Kernels.find name)
  else if Filename.check_suffix src ".mf" then
    Frontend.Lower.compile (read_file src)
  else Iloc.Parser.routine (read_file src)

let or_die f =
  try f () with
  | Iloc.Parser.Error { line; msg } ->
      Fmt.epr "parse error at line %d: %s@." line msg;
      exit 1
  | Frontend.Lexer.Error { line; msg } ->
      Fmt.epr "lex error at line %d: %s@." line msg;
      exit 1
  | Frontend.Mf_parser.Error { line; msg } ->
      Fmt.epr "parse error at line %d: %s@." line msg;
      exit 1
  | Frontend.Typecheck.Error msg ->
      Fmt.epr "type error: %s@." msg;
      exit 1
  | Frontend.Lower.Error msg | Failure msg ->
      Fmt.epr "error: %s@." msg;
      exit 1
  | Invalid_argument msg ->
      Fmt.epr "invalid input: %s@." msg;
      exit 1
  | Remat.Allocator.Allocation_error msg ->
      Fmt.epr "allocation failed: %s@." msg;
      exit 1
  | Remat.Allocator.Verification_error msgs ->
      Fmt.epr "static verification failed:@.";
      List.iter (fun m -> Fmt.epr "  %s@." m) msgs;
      exit 1
  | Remat.Spill_code.Pressure_too_high msg ->
      Fmt.epr "allocation failed: %s@." msg;
      exit 1
  | Sim.Interp.Runtime_error msg ->
      Fmt.epr "runtime error: %s@." msg;
      exit 1

(* --- common arguments --- *)

let source =
  let doc = "Input routine: an .mf file, an ILOC file, or kernel:NAME." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOURCE" ~doc)

let optimize =
  let doc = "Run the optimization pipeline (LVN, DCE, LICM) first." in
  Arg.(value & flag & info [ "O"; "optimize" ] ~doc)

let mode_names =
  String.concat " | " (List.map Remat.Mode.to_string Remat.Mode.all)

let mode =
  let parse s =
    match Remat.Mode.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg ("expected one of: " ^ mode_names))
  in
  let print ppf m = Fmt.string ppf (Remat.Mode.to_string m) in
  let mode_conv = Arg.conv (parse, print) in
  let doc = Printf.sprintf "Allocator variant (%s)." mode_names in
  Arg.(value & opt mode_conv Remat.Mode.Briggs_remat & info [ "m"; "mode" ] ~doc)

let k_int =
  let doc = "Number of integer registers." in
  Arg.(value & opt int 16 & info [ "k-int" ] ~doc)

let k_float =
  let doc = "Number of floating-point registers." in
  Arg.(value & opt int 16 & info [ "k-float" ] ~doc)

let prepare src opt_flag =
  let cfg = load_source src in
  if opt_flag then Opt.Pipeline.run cfg else cfg

(* --- subcommands --- *)

let parse_cmd =
  let run src =
    or_die (fun () ->
        let cfg = load_source src in
        (match Iloc.Validate.routine cfg with
        | Ok () -> ()
        | Error es ->
            Fmt.epr "validation errors:@.";
            List.iter
              (fun e -> Fmt.epr "  %s@." (Iloc.Validate.error_to_string e))
              es;
            exit 1);
        print_string (Iloc.Printer.routine_to_string cfg))
  in
  let doc = "Parse (and for .mf, compile) a routine; print its ILOC." in
  Cmd.v (Cmd.info "parse" ~doc) Term.(const run $ source)

let opt_cmd =
  let run src =
    or_die (fun () ->
        let cfg = Opt.Pipeline.run (load_source src) in
        print_string (Iloc.Printer.routine_to_string cfg))
  in
  let doc = "Optimize a routine (LVN, DCE, LICM) and print the result." in
  Cmd.v (Cmd.info "opt" ~doc) Term.(const run $ source)

let alloc_cmd =
  let run src opt_flag mode k_int k_float verify verbose stats =
    or_die (fun () ->
        let cfg = prepare src opt_flag in
        let machine = Remat.Machine.make ~name:"cli" ~k_int ~k_float in
        let res = Remat.Allocator.allocate ~verify ~mode ~machine cfg in
        (match Remat.Allocator.check res with
        | Ok () -> ()
        | Error es ->
            Fmt.epr "internal check failed: %s@." (String.concat "; " es);
            exit 2);
        print_string (Iloc.Printer.routine_to_string res.Remat.Allocator.cfg);
        Fmt.pr
          "; mode=%s machine=%d/%d rounds=%d values=%d live-ranges=%d@.\
           ; spilled: %d through memory (%d slots), %d rematerialized; \
           %d copies coalesced@."
          (Remat.Mode.to_string mode)
          k_int k_float res.Remat.Allocator.rounds res.Remat.Allocator.n_values
          res.Remat.Allocator.n_live_ranges res.Remat.Allocator.spilled_memory
          res.Remat.Allocator.spill_slots res.Remat.Allocator.spilled_remat
          res.Remat.Allocator.coalesced_copies;
        if verbose || stats then
          Fmt.pr "; phase times and counters:@.%a" Remat.Dump.stats
            res.Remat.Allocator.stats)
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Statically verify the allocation before printing it: an \
             independent translation validator proves every physical \
             register, spill slot and rematerialization sequence carries \
             the source value it replaces.  Exits 1 with the offending \
             block and instruction otherwise.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print phase timings.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the per-round phase timers and event counters (full \
             graph builds, liveness runs, coalesce sweeps, node merges, \
             spilled ranges) collected during allocation.")
  in
  let doc = "Allocate registers and print the rewritten routine." in
  Cmd.v
    (Cmd.info "alloc" ~doc)
    Term.(
      const run $ source $ optimize $ mode $ k_int $ k_float $ verify $ verbose
      $ stats)

let verify_cmd =
  let run in_src out_src k_int k_float quiet =
    or_die (fun () ->
        let input = load_source in_src in
        let output = load_source out_src in
        let validate what cfg =
          match Iloc.Validate.routine cfg with
          | Ok () -> ()
          | Error es ->
              Fmt.epr "%s is not valid ILOC:@." what;
              List.iter
                (fun e -> Fmt.epr "  %s@." (Iloc.Validate.error_to_string e))
                es;
              exit 2
        in
        validate "input routine" input;
        validate "allocated routine" output;
        match
          Verify.Check.routine ~input ~output ~k_int ~k_float
        with
        | Ok report ->
            if not quiet then
              Fmt.pr "%s: verified (%s)@." output.Iloc.Cfg.name
                (Verify.Check.report_to_string report)
        | Error es when List.for_all Verify.Error.is_unsupported es ->
            Fmt.epr "not verifiable:@.";
            List.iter
              (fun e -> Fmt.epr "  %s@." (Verify.Error.to_string e))
              es;
            exit 2
        | Error es ->
            Fmt.epr "verification failed:@.";
            List.iter
              (fun e -> Fmt.epr "  %s@." (Verify.Error.to_string e))
              es;
            exit 1)
  in
  let in_src =
    let doc = "Source routine (before allocation)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"IN" ~doc)
  in
  let out_src =
    let doc = "Allocated routine (the allocator's output)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc)
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Print nothing on success.")
  in
  let doc =
    "Statically prove an allocated routine faithful to its source.  A \
     forward dataflow analysis maps every physical register, spill slot \
     and rematerialization sequence of OUT back to the virtual value of \
     IN it must carry; exits 0 on proof, 1 with the offending block and \
     instruction on rejection, 2 if the pair is invalid or outside the \
     checker's domain."
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const run $ in_src $ out_src $ k_int $ k_float $ quiet)

let batch_cmd =
  let run sources all_kernels opt_flag mode k_int k_float jobs =
    or_die (fun () ->
        (* Input files are read (and kernels resolved) sequentially up
           front; the workers get pure strings and kernel records, so no
           I/O and no shared mutable state crosses a domain boundary. *)
        let named =
          List.map
            (fun k -> (k.Suite.Kernels.name, `Kernel k))
            (if all_kernels then Suite.Kernels.all else [])
          @ List.map
              (fun src ->
                let prefix = "kernel:" in
                if
                  String.length src > String.length prefix
                  && String.sub src 0 (String.length prefix) = prefix
                then
                  let name =
                    String.sub src (String.length prefix)
                      (String.length src - String.length prefix)
                  in
                  (src, `Kernel (Suite.Kernels.find name))
                else if Filename.check_suffix src ".mf" then
                  (src, `Mf (read_file src))
                else (src, `Iloc (read_file src)))
              sources
        in
        if named = [] then begin
          Fmt.epr "batch: no inputs (give SOURCES or --kernels)@.";
          exit 2
        end;
        let machine = Remat.Machine.make ~name:"cli" ~k_int ~k_float in
        let jobs = if jobs = 0 then Suite.Pool.default_jobs () else jobs in
        let allocate (name, payload) =
          let cfg =
            match payload with
            | `Kernel k -> Suite.Kernels.cfg_of k
            | `Mf text -> Frontend.Lower.compile text
            | `Iloc text -> Iloc.Parser.routine text
          in
          let cfg = if opt_flag then Opt.Pipeline.run cfg else cfg in
          let res = Remat.Allocator.allocate ~mode ~machine cfg in
          (match Remat.Allocator.check res with
          | Ok () -> ()
          | Error es ->
              failwith
                (Printf.sprintf "%s: internal check failed: %s" name
                   (String.concat "; " es)));
          Printf.sprintf
            ";; === %s ===\n\
             %s; rounds=%d spilled=%d+%d remat=%d coalesced=%d\n"
            name
            (Iloc.Printer.routine_to_string res.Remat.Allocator.cfg)
            res.Remat.Allocator.rounds res.Remat.Allocator.spilled_memory
            res.Remat.Allocator.spill_slots res.Remat.Allocator.spilled_remat
            res.Remat.Allocator.coalesced_copies
        in
        let t0 = Unix.gettimeofday () in
        let outputs = Suite.Pool.run ~jobs allocate (Array.of_list named) in
        let elapsed = Unix.gettimeofday () -. t0 in
        Array.iter print_string outputs;
        (* Stderr, so stdout stays byte-identical across -j values. *)
        Fmt.epr "; batch: %d routines in %.3fs with %d jobs@."
          (Array.length outputs) elapsed jobs)
  in
  let sources =
    let doc = "Input routines: .mf files, ILOC files, or kernel:NAME." in
    Arg.(value & pos_all string [] & info [] ~docv:"SOURCES" ~doc)
  in
  let all_kernels =
    Arg.(
      value & flag
      & info [ "kernels" ]
          ~doc:"Also allocate every built-in suite kernel (before SOURCES).")
  in
  let jobs =
    let doc =
      "Number of worker domains; 0 picks the machine's recommended count. \
       Results are printed in input order and are byte-identical for every \
       value of $(docv)."
    in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let doc =
    "Allocate many independent routines on a multicore worker pool."
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run $ sources $ all_kernels $ optimize $ mode $ k_int $ k_float
      $ jobs)

let run_cmd =
  let run src opt_flag do_alloc mode k_int k_float =
    or_die (fun () ->
        let cfg = prepare src opt_flag in
        let cfg =
          if do_alloc then begin
            let machine = Remat.Machine.make ~name:"cli" ~k_int ~k_float in
            (Remat.Allocator.allocate ~mode ~machine cfg).Remat.Allocator.cfg
          end
          else cfg
        in
        let out = Sim.Interp.run cfg in
        List.iter (fun v -> Fmt.pr "%a@." Sim.Interp.pp_value v)
          out.Sim.Interp.prints;
        (match out.Sim.Interp.return with
        | Some v -> Fmt.pr "returned %a@." Sim.Interp.pp_value v
        | None -> ());
        Fmt.pr "counts: %a@." Sim.Counts.pp out.Sim.Interp.counts)
  in
  let do_alloc =
    Arg.(value & flag & info [ "a"; "alloc" ]
           ~doc:"Allocate registers before running.")
  in
  let doc = "Interpret a routine and print its output and dynamic counts." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ source $ optimize $ do_alloc $ mode $ k_int $ k_float)

let kernels_cmd =
  let run () =
    List.iter
      (fun k ->
        Fmt.pr "%-12s %-10s %s@." k.Suite.Kernels.name k.Suite.Kernels.program
          k.Suite.Kernels.description)
      Suite.Kernels.all
  in
  let doc = "List the built-in workload kernels." in
  Cmd.v (Cmd.info "kernels" ~doc) Term.(const run $ const ())

let emit_cmd =
  let run src opt_flag do_alloc mode k_int k_float =
    or_die (fun () ->
        let cfg = prepare src opt_flag in
        let cfg =
          if do_alloc then begin
            let machine = Remat.Machine.make ~name:"cli" ~k_int ~k_float in
            (Remat.Allocator.allocate ~mode ~machine cfg).Remat.Allocator.cfg
          end
          else cfg
        in
        print_string (Emit.C_emitter.routine_to_string cfg))
  in
  let do_alloc =
    Arg.(value & flag & info [ "a"; "alloc" ]
           ~doc:"Allocate registers before emitting.")
  in
  let doc =
    "Translate a routine to instrumented C (the paper's Figure 4 pipeline)."
  in
  Cmd.v (Cmd.info "emit" ~doc)
    Term.(const run $ source $ optimize $ do_alloc $ mode $ k_int $ k_float)

let dot_cmd =
  let run src opt_flag interference =
    or_die (fun () ->
        let cfg = prepare src opt_flag in
        if interference then begin
          (* The allocator's own front half and first build. *)
          let ctx =
            Remat.Allocator.context ~mode:Remat.Mode.Briggs_remat
              ~machine:Remat.Machine.standard
              (Remat.Allocator.front_half cfg)
          in
          let g = Remat.Allocator.build ctx in
          print_string
            (Remat.Dump.interference_to_string
               ~split_pairs:ctx.Remat.Context.split_pairs g)
        end
        else print_string (Iloc.Dot.cfg_to_string cfg))
  in
  let interference =
    Arg.(value & flag
         & info [ "i"; "interference" ]
             ~doc:"Emit the renumbered routine's interference graph instead \
                   of the control-flow graph.")
  in
  let doc = "Emit a Graphviz rendering of the CFG or interference graph." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ source $ optimize $ interference)

let report_cmd =
  let run what =
    or_die (fun () ->
        let std = Format.std_formatter in
        match what with
        | "table1" -> Suite.Report.pp_table1 std (Suite.Report.table1 ())
        | "table2" ->
            Suite.Report.pp_table2 std
              (Suite.Report.table2 [ "repvid"; "tomcatv"; "twldrv" ])
        | "ablation" -> Suite.Report.pp_ablation std (Suite.Report.ablation ())
        | "race" -> Suite.Report.pp_race std (Suite.Report.race ())
        | "baseline" ->
            List.iter
              (fun k ->
                let cfg = Suite.Kernels.cfg_of ~optimize:true k in
                let cycles c =
                  Sim.Counts.cycles (Sim.Interp.run c).Sim.Interp.counts
                in
                let local =
                  cycles
                    (Remat.Local_allocator.run cfg).Remat.Local_allocator.cfg
                in
                let global =
                  let res =
                    Remat.Allocator.allocate ~machine:Remat.Machine.standard cfg
                  in
                  cycles res.Remat.Allocator.cfg
                in
                Fmt.pr "%-12s local=%d briggs=%d@." k.Suite.Kernels.name local
                  global)
              Suite.Kernels.all
        | "fig1" -> Suite.Figures.fig1 std
        | "fig2" -> Suite.Figures.fig2 std
        | "fig3" -> Suite.Figures.fig3 std
        | "fig4" -> Suite.Figures.fig4 std
        | other ->
            Fmt.epr "unknown report %S@." other;
            exit 1)
  in
  let what =
    Arg.(value & pos 0 string "table1"
         & info [] ~docv:"REPORT"
             ~doc:
               "table1 | table2 | ablation | race | baseline | fig1 | fig2 | \
                fig3 | fig4")
  in
  let doc = "Regenerate one of the paper's tables or figures." in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ what)

let fuzz_cmd =
  let run runs seed jobs out no_reduce =
    or_die (fun () ->
        let jobs = if jobs = 0 then Suite.Pool.default_jobs () else jobs in
        let t0 = Unix.gettimeofday () in
        let summary =
          Fuzz.Campaign.run ~reduce:(not no_reduce) ~runs ~seed ~jobs ()
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        print_string (Fuzz.Campaign.summary_to_json summary);
        (match out with
        | Some dir -> Fuzz.Campaign.save ~dir summary
        | None -> ());
        (* Stderr, so stdout stays byte-identical across -j values. *)
        Fmt.epr
          "; fuzz: %d seeds from %d in %.1fs with %d jobs — %d divergence(s)@."
          runs seed elapsed jobs
          (List.length summary.Fuzz.Campaign.failures);
        if summary.Fuzz.Campaign.failures <> [] then exit 1)
  in
  let runs =
    Arg.(value & opt int 500
         & info [ "runs" ] ~docv:"N" ~doc:"Number of seeds to test.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S"
             ~doc:"Base seed; run $(i,i) uses seed S+$(i,i).")
  in
  let jobs =
    let doc =
      "Number of worker domains; 0 picks the machine's recommended count. \
       The summary is identical for every value of $(docv)."
    in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Persist the corpus (summary.json plus one commented .il \
                   reproducer per divergence) under $(docv).")
  in
  let no_reduce =
    Arg.(value & flag
         & info [ "no-reduce" ]
             ~doc:"Report failing routines as generated, without \
                   delta-debugging them down to minimal reproducers.")
  in
  let doc =
    "Differential-fuzz the whole pipeline: generated routines are run \
     through every optimizer/allocator/machine configuration and compared \
     against the interpreted original.  Prints a JSON summary; exits 1 if \
     any configuration diverges."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ runs $ seed $ jobs $ out $ no_reduce)

let bench_cmd =
  let run what sizes repeats seed out check requests distinct edit_rate jobs
      wave cache min_hit_rate =
    or_die (fun () ->
        match what with
        | "scale" ->
            let out = Some (Option.value out ~default:"BENCH_scale.json") in
            let code =
              Scale_bench.Scale.run ~sizes ~repeats ~seed ?out
                ?check_file:check Format.std_formatter
            in
            if code <> 0 then exit code
        | "serve" ->
            let jobs = if jobs = 0 then Suite.Pool.default_jobs () else jobs in
            let cfg =
              {
                Serve.Loadgen.default with
                requests;
                distinct;
                edit_rate;
                seed;
                jobs;
                wave;
                cache_capacity = cache;
              }
            in
            let s = Serve.Loadgen.run cfg in
            print_string (Serve.Loadgen.summary_to_json s);
            let out = Option.value out ~default:"BENCH_serve.json" in
            Serve.Loadgen.save out s;
            Fmt.epr "; bench serve: wrote %s@." out;
            let fail fmt = Fmt.epr ("; bench serve: FAIL: " ^^ fmt ^^ "@.") in
            let failed = ref false in
            if s.Serve.Loadgen.s_errors > 0 then begin
              fail "%d error response(s)" s.Serve.Loadgen.s_errors;
              failed := true
            end;
            if s.Serve.Loadgen.s_incremental_rebuilds > 0 then begin
              fail "%d incremental response(s) did a full rebuild"
                s.Serve.Loadgen.s_incremental_rebuilds;
              failed := true
            end;
            if s.Serve.Loadgen.s_hit_rate < min_hit_rate then begin
              fail "hit rate %.4f below required %.4f"
                s.Serve.Loadgen.s_hit_rate min_hit_rate;
              failed := true
            end;
            if !failed then exit 1
        | "race" ->
            let rows = Suite.Report.race ~repeats:(max 1 repeats) () in
            Suite.Report.pp_race Format.std_formatter rows;
            let out = Option.value out ~default:"BENCH_race.json" in
            let oc = open_out out in
            output_string oc (Suite.Report.race_json rows);
            output_char oc '\n';
            close_out oc;
            Fmt.epr "; bench race: wrote %s@." out;
            (* Both pipelines allocated every kernel and simulated to the
               same outcome inside [race]; a divergence raises there. *)
            List.iter
              (fun r ->
                if r.Suite.Report.ssa_cycles <= 0 || r.Suite.Report.briggs_cycles <= 0
                then begin
                  Fmt.epr "; bench race: FAIL: %s reported non-positive cycles@."
                    r.Suite.Report.race_kernel.Suite.Kernels.name;
                  exit 1
                end)
              rows
        | other ->
            Fmt.epr "unknown benchmark %S (want: scale | serve | race)@." other;
            exit 2)
  in
  let what =
    Arg.(
      value & pos 0 string "scale"
      & info [] ~docv:"BENCH"
          ~doc:
            "scale: coloring-core phases on generated routines of growing \
             size, outputs byte-compared with the retained reference \
             implementation.  serve: replay a deterministic request stream \
             (repeats plus seeded edits) through the allocation server, \
             reporting latency, throughput and cache hit rate.  race: \
             Chaitin\226\128\147Briggs vs the decoupled SSA pipeline on the \
             kernel suite \226\128\148 dynamic cycles and allocation time.")
  in
  let sizes =
    Arg.(
      value
      & opt (list int) Scale_bench.Scale.default_sizes
      & info [ "sizes" ] ~docv:"N,N,..."
          ~doc:"Routine sizes in instructions.")
  in
  let repeats =
    Arg.(
      value & opt int 3
      & info [ "repeats" ] ~docv:"N"
          ~doc:"Timing repetitions; the best is reported.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S" ~doc:"Generator seed.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write machine-readable results to $(docv) (default \
             BENCH_scale.json or BENCH_serve.json by benchmark).")
  in
  let check =
    Arg.(
      value & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:
            "Compare against a baseline BENCH_scale.json; exit 1 if any \
             phase of the current implementation runs more than twice as \
             slow as its baseline entry (sub-millisecond baselines are \
             skipped as noise).")
  in
  let requests =
    Arg.(
      value & opt int 1000
      & info [ "requests" ] ~docv:"N" ~doc:"serve: requests to replay.")
  in
  let distinct =
    Arg.(
      value & opt int 32
      & info [ "distinct" ] ~docv:"N"
          ~doc:"serve: distinct base routines behind the stream.")
  in
  let edit_rate =
    Arg.(
      value & opt float 0.3
      & info [ "edit-rate" ] ~docv:"R"
          ~doc:"serve: fraction of requests that are seeded edits.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "serve: worker domains; 0 picks the machine's recommended \
             count.  The response byte stream (and its digest in the \
             summary) is identical for every value of $(docv).")
  in
  let wave =
    Arg.(
      value & opt int 32
      & info [ "wave" ] ~docv:"N" ~doc:"serve: requests per wave.")
  in
  let cache =
    Arg.(
      value & opt int 512
      & info [ "cache" ] ~docv:"N" ~doc:"serve: LRU cache capacity.")
  in
  let min_hit_rate =
    Arg.(
      value & opt float 0.
      & info [ "min-hit-rate" ] ~docv:"R"
          ~doc:"serve: exit 1 if the cache hit rate ends below $(docv).")
  in
  let doc =
    "Run a performance benchmark.  $(b,scale) times simplify, select and \
     the coalescing fixpoint on high-pressure generated routines at each \
     requested size, verifying outputs match the reference implementation; \
     exits non-zero on divergence or (with --check) regression.  \
     $(b,serve) drives the allocation server with a deterministic mix of \
     repeated and edited routines and writes latency percentiles, \
     throughput and cache counters to BENCH_serve.json; exits non-zero on \
     any error response, any non-incremental rebuild on the incremental \
     path, or a hit rate below --min-hit-rate.  $(b,race) runs both full \
     pipelines on every workload kernel and writes per-kernel dynamic \
     cycles, allocation time, spills and coalesced copies to \
     BENCH_race.json."
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ what $ sizes $ repeats $ seed $ out $ check $ requests
      $ distinct $ edit_rate $ jobs $ wave $ cache $ min_hit_rate)

let serve_cmd =
  let run socket jobs cache max_frame batch =
    or_die (fun () ->
        let jobs = if jobs = 0 then Suite.Pool.default_jobs () else jobs in
        let config =
          {
            Serve.Server.jobs;
            cache_capacity = cache;
            max_frame;
            batch_limit = max 1 batch;
          }
        in
        let server = Serve.Server.create ~config () in
        Fun.protect
          ~finally:(fun () -> Serve.Server.shutdown server)
          (fun () ->
            match socket with
            | Some path ->
                Fmt.epr "; ralloc serve: listening on %s (%d jobs)@." path jobs;
                Serve.Server.serve_socket server path
            | None ->
                Serve.Server.serve_fds server ~in_fd:Unix.stdin
                  ~out_fd:Unix.stdout))
  in
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) (one connection at \
             a time) instead of serving stdin/stdout.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for each request wave; 0 picks the machine's \
             recommended count.  Responses are byte-identical for every \
             value of $(docv).")
  in
  let cache =
    Arg.(
      value & opt int 512
      & info [ "cache" ] ~docv:"N"
          ~doc:"Memo-table capacity in entries (LRU eviction).")
  in
  let max_frame =
    Arg.(
      value
      & opt int Serve.Frame.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Reject request frames larger than $(docv) as corrupt.")
  in
  let batch =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N"
          ~doc:"Maximum requests drained into one wave.")
  in
  let doc =
    "Run the persistent allocation service.  Requests (length-prefixed \
     frames, see DESIGN.md §15) arrive on stdin or a Unix socket; \
     allocations fan out across a worker pool, results are memoized by \
     routine content hash, and edited routines re-allocate incrementally \
     from the cached snapshot.  Responses are deterministic: byte-identical \
     for any --jobs value."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket $ jobs $ cache $ max_frame $ batch)

let reduce_cmd =
  let run src =
    or_die (fun () ->
        let cfg = load_source src in
        match Fuzz.Oracle.check cfg with
        | Error m ->
            Fmt.epr "reference execution failed: %s@." m;
            exit 1
        | Ok [] ->
            Fmt.pr "no divergence: every oracle configuration matches the \
                    interpreted original@."
        | Ok ((config, d) :: _) ->
            let cls = Fuzz.Oracle.class_of d in
            let interesting cand =
              match Fuzz.Oracle.reference cand with
              | Error _ -> false
              | Ok r -> (
                  match
                    Fuzz.Oracle.check_config ~reference:r cand config
                  with
                  | Some d' -> Fuzz.Oracle.class_of d' = cls
                  | None -> false)
            in
            let red = Fuzz.Reduce.run ~interesting cfg in
            Fmt.pr "; config: %s@.; divergence: %s@.; %s@.; %d -> %d \
                    instructions@."
              (Fuzz.Oracle.config_name config)
              (Fuzz.Oracle.fingerprint d) (Fuzz.Oracle.describe d)
              (Fuzz.Reduce.instr_count cfg)
              (Fuzz.Reduce.instr_count red);
            print_string (Iloc.Printer.routine_to_string red);
            exit 1)
  in
  let doc =
    "Find a divergence in one routine and delta-debug it down to a minimal \
     reproducer (printed as ILOC with a comment header).  Exits 0 if the \
     routine is clean, 1 with the reproducer otherwise."
  in
  Cmd.v (Cmd.info "reduce" ~doc) Term.(const run $ source)

(* One row per subcommand: the dispatch table, the usage screen and the
   unknown-command check all read from here, so they cannot drift. *)
let commands =
  [
    ("parse", "parse (or compile) a routine and print its ILOC", parse_cmd);
    ("opt", "optimize a routine (LVN, DCE, LICM)", opt_cmd);
    ("alloc", "allocate registers and print the rewritten routine", alloc_cmd);
    ("verify", "statically prove an allocation faithful to its source",
     verify_cmd);
    ("batch", "allocate many routines on a multicore worker pool", batch_cmd);
    ("run", "interpret a routine; print output and dynamic counts", run_cmd);
    ("kernels", "list the built-in workload kernels", kernels_cmd);
    ("dot", "emit Graphviz for the CFG or interference graph", dot_cmd);
    ("emit", "translate a routine to instrumented C", emit_cmd);
    ("report", "regenerate one of the paper's tables or figures", report_cmd);
    ("fuzz", "differential-fuzz the pipeline over many seeds", fuzz_cmd);
    ("bench", "benchmark the coloring core or the allocation server",
     bench_cmd);
    ("serve", "run the persistent allocation service", serve_cmd);
    ("reduce", "minimize a diverging routine to a small reproducer",
     reduce_cmd);
  ]

let usage ppf =
  Fmt.pf ppf "usage: ralloc COMMAND [ARGS]...@.@.Commands:@.";
  List.iter (fun (name, doc, _) -> Fmt.pf ppf "  %-8s %s@." name doc) commands;
  Fmt.pf ppf "@.Run 'ralloc COMMAND --help' for details on one command.@."

let () =
  (* Friendlier than cmdliner's default for the two common mistakes: no
     subcommand at all, and a misspelled one.  Everything else (options,
     prefixes of command names, --help) goes straight to cmdliner. *)
  (match Array.to_list Sys.argv with
  | [ _ ] ->
      Fmt.epr "ralloc: missing command@.@.%t" usage;
      exit 2
  | _ :: cmd :: _
    when String.length cmd > 0
         && cmd.[0] <> '-'
         && not
              (List.exists
                 (fun (name, _, _) -> String.starts_with ~prefix:cmd name)
                 commands) ->
      Fmt.epr "ralloc: unknown command %S@.@.%t" cmd usage;
      exit 2
  | _ -> ());
  let doc =
    "rematerialization in a Chaitin-Briggs graph-coloring register allocator"
  in
  let info = Cmd.info "ralloc" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info (List.map (fun (_, _, c) -> c) commands)))
